(* The benchmark's entry point.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --selftest

   A run repeats whole rounds of one workload for S seconds (at least the
   workload's [rounds]) and prints, as the last line of stdout, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 every other round
   runs with the program's Metrics registry recording, and the metrics are
   the per-layer sweep plus the tracing overhead. *)

open Measure
module Metrics = Revmax_prelude.Metrics

let end_to_end (o : Workloads.outcome) =
  [
    m "setup_s" "s" (median o.setup);
    m "plan_p50_ms" "ms" (1e3 *. median o.plan);
    m "topk_p50_ms" "ms" (1e3 *. median o.topk);
    m "plan_revenue" "rev" (mean o.revenue);
    (* every serve-stream round boots a fresh server: the median of their peaks *)
    (let kb =
       if o.server_rss_kb = [] then float_of_int o.rss_kb
       else median (List.map float_of_int o.server_rss_kb)
     in
     m "peak_rss_mb" "MB" (kb /. 1024.0));
  ]

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* a scratch directory of this process's own, inside the checkout *)
let with_scratch f =
  let dir = Filename.concat ".bench_build/perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdirs dir;
  Fun.protect ~finally:(fun () -> Layers.remove_dir dir) (fun () -> f dir)

let run (w : Workloads.t) ~seconds ~trace =
  let o = Workloads.outcome () in
  let deadline = now () +. float_of_int seconds in
  let rounds = ref 0 in
  while !rounds < w.rounds || now () < deadline do
    w.round o ~index:!rounds ~traced:(trace && !rounds mod 2 = 1);
    incr rounds
  done;
  let metrics =
    if not trace then end_to_end o
    else begin
      let layers = w.layers o in
      (* everything the registry saw in this run, for the reader of the log *)
      Printf.printf "metrics-snapshot %s %s\n" w.name (Metrics.to_json (Metrics.snapshot ()));
      layers
      @ [
          m "topk.zero_score_answers" "count" (float_of_int o.zero_scores);
          m "trace.overhead_ratio" "ratio" (mean o.traced_plan /. mean o.plan);
        ]
    end
  in
  List.iter (fun e -> Printf.eprintf "perfbench: %s: %s\n" w.name e) o.errors;
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  if not finite then prerr_endline "perfbench: a metric is not a finite number";
  (o, metrics, o.errors = [] && finite)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench --selftest";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--selftest" ] -> exit (with_scratch (fun scratch -> Selftest.main ~run ~scratch))
  | [ "--serve-child"; seed; dir; tiny; traced ] ->
      Workloads.serve_child ~seed:(int_of_string seed) ~dir ~tiny:(bool_of_string tiny)
        ~traced:(bool_of_string traced)
  | _ ->
    let rec parse acc = function
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
          parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get name = match List.assoc_opt name opts with Some v -> v | None -> usage () in
    let int name = match int_of_string_opt (get name) with Some v -> v | None -> usage () in
    let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    if not (List.mem workload Workloads.names) then begin
      Printf.eprintf "perfbench: unknown workload %s (one of: %s)\n" workload
        (String.concat ", " Workloads.names);
      exit 2
    end;
    let code =
      with_scratch (fun scratch ->
          let w = Option.get (Workloads.make ~tiny:false ~seed ~scratch workload) in
          let o, metrics, correct = run w ~seconds ~trace in
          print_endline
            (result_line ~correct ~attempted:o.attempted ~failed:o.failed metrics);
          0)
    in
    exit code
