(* Quick mode: every workload at tiny sizes, untraced and traced, with
   every check; the printed metric names must be exactly those that
   BENCHMARK.json declares; and negative cases show that the checks
   reject what they should. Exit code 0 when everything passes. *)

module Instance = Revmax.Instance

(* the metric names of one BENCHMARK.json section, in file order *)
let declared section =
  let text = In_channel.with_open_text "BENCHMARK.json" In_channel.input_all in
  let find sub from =
    let n = String.length sub in
    let rec go k =
      if k + n > String.length text then None
      else if String.sub text k n = sub then Some k
      else go (k + 1)
    in
    go from
  in
  let start = Option.get (find (Printf.sprintf "%S" section) 0) in
  let stop = Option.value (find "]" start) ~default:(String.length text) in
  let rec names from acc =
    match find "\"name\": \"" from with
    | Some k when k < stop ->
        let v = k + 9 in
        let e = String.index_from text v '"' in
        names e (String.sub text v (e - v) :: acc)
    | _ -> List.rev acc
  in
  names start []

let main ~run ~scratch =
  let failures = ref 0 in
  let expect name ok =
    if not ok then incr failures;
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name
  in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let w = Option.get (Workloads.make ~tiny:true ~seed:1 ~scratch name) in
          let (o : Workloads.outcome), metrics, correct = run w ~seconds:0 ~trace in
          let label = Printf.sprintf "%s (trace %b)" name trace in
          expect (label ^ ": every check passes") correct;
          (* the §6 workloads fail the worthless-triple witness once a round *)
          let witness_fails =
            if List.mem name [ "packed-hier"; "serve-stream" ] then w.rounds else 0
          in
          expect
            (label ^ ": operations attempted, only the witness failed")
            (o.attempted > 0 && o.failed = witness_fails);
          expect
            (label ^ ": metrics are those BENCHMARK.json declares")
            (List.map (fun (x : Measure.metric) -> x.name) metrics
            = declared (if trace then "per_layer" else "end_to_end")))
        [ false; true ])
    Workloads.names;
  (* a small instance with every pair a candidate at time 1 *)
  let inst =
    Instance.create ~num_users:3 ~num_items:4 ~horizon:2 ~display_limit:2
      ~class_of:[| 0; 0; 1; 1 |] ~capacity:[| 1; 2; 2; 2 |] ~saturation:(Array.make 4 0.8)
      ~price:(Array.make 4 [| 5.0; 4.0 |])
      ~adoption:
        (List.concat_map (fun u -> List.init 4 (fun i -> (u, i, [| 0.3; 0.2 |]))) [ 0; 1; 2 ])
      ()
  in
  let rejects what errs =
    expect (Printf.sprintf "checker rejects %s (%s)" what (String.concat "; " errs)) (errs <> [])
  in
  expect "checker accepts a valid plan" (Check.plan_errors inst [ (0, 0, 1); (1, 1, 1) ] = []);
  rejects "an over-subscribed item" (Check.plan_errors inst [ (0, 0, 1); (1, 0, 2) ]);
  rejects "an over-full display" (Check.plan_errors inst [ (0, 1, 1); (0, 2, 1); (0, 3, 1) ]);
  rejects "a repeated triple" (Check.plan_errors inst [ (0, 1, 1); (0, 1, 1) ]);
  rejects "a triple out of range" (Check.plan_errors inst [ (0, 1, 3) ]);
  let s, _ = Revmax.Greedy.run inst in
  let plan = Workloads.triples_of s in
  let rev = Revmax.Revenue.total s in
  expect "evaluator agrees with Revenue.total"
    (Check.revenue_errors inst plan ~planner_revenue:rev = []);
  rejects "a revenue perturbed by 1e-6"
    (Check.revenue_errors inst plan ~planner_revenue:(rev *. (1.0 +. 1e-6)));
  (* two same-class items shown together compete: 5·0.3·0.7 each *)
  expect "evaluator follows Definition 1 on a hand-computed plan"
    (Check.rel_diff (Check.revenue inst [ (0, 0, 1); (0, 1, 1) ]) (2.0 *. 5.0 *. 0.3 *. 0.7)
    < 1e-12);
  (* memory 1 and one earlier competitor: 4·0.2·0.8^1·0.7 *)
  expect "evaluator applies saturation over time"
    (Check.rel_diff
       (Check.revenue inst [ (0, 0, 1); (0, 0, 2) ])
       ((5.0 *. 0.3) +. (4.0 *. 0.2 *. 0.8 *. 0.7))
    < 1e-12);
  rejects "increasing Topk scores" (Check.topk_errors inst ~u:0 ~time:1 [ (0, 1.0); (1, 2.0) ]);
  rejects "a Topk score above the price" (Check.topk_errors inst ~u:0 ~time:1 [ (0, 6.0) ]);
  rejects "a zero Topk score" (Check.topk_errors inst ~u:0 ~time:1 [ (0, 0.0) ]);
  expect "a zero Topk score passes where allowed"
    (Check.topk_errors ~zero_ok:true inst ~u:0 ~time:1 [ (0, 1.0); (1, 0.0) ] = []);
  rejects "a negative Topk score where zero is allowed"
    (Check.topk_errors ~zero_ok:true inst ~u:0 ~time:1 [ (0, -1.0) ]);
  (* a sure adoption of item 0 at t = 1 leaves item 1 at t = 2 nothing *)
  let sure =
    Instance.create ~num_users:1 ~num_items:2 ~horizon:2 ~display_limit:1 ~class_of:[| 0; 0 |]
      ~capacity:[| 1; 1 |] ~saturation:[| 0.9; 0.9 |]
      ~price:[| [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |]
      ~adoption:[ (0, 0, [| 1.0; 0.5 |]); (0, 1, [| 0.5; 0.5 |]) ]
      ()
  in
  expect "worthless check accepts a plan of positive probabilities"
    (Check.worthless_errors sure [ (0, 1, 1); (0, 0, 2) ] = []);
  rejects "a worthless planned triple" (Check.worthless_errors sure [ (0, 0, 1); (0, 1, 2) ]);
  rejects "too many Topk items"
    (Check.topk_errors inst ~u:0 ~time:1 [ (0, 3.0); (1, 2.0); (2, 1.0) ]);
  let fold = Check.fold_events inst [ Revmax_serve.Journal.Adopt { u = 0; i = 1; t = 1 } ] in
  expect "the event fold prices the first adoption" (fold.realized = 5.0 && fold.consumed.(1) = 1);
  rejects "an adopted pair left in the served plan"
    (Check.served_plan_errors inst fold [ (0, 1, 2) ]);
  rejects "a served plan beyond the stock left"
    (Check.served_plan_errors inst fold [ (1, 1, 1); (2, 1, 1) ]);
  if !failures = 0 then (print_endline "selftest: all passed"; 0)
  else (Printf.printf "selftest: %d failed\n" !failures; 1)
