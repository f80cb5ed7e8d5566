(* Correctness checks, written from the problem statement (DESIGN.md §1)
   rather than from the planner's code. Plans are lists of (u, i, t). *)

module Instance = Revmax.Instance

(* the first few problems, in the order they were found *)
let first_errors errs = List.filteri (fun n _ -> n < 5) errs

(* A plan is valid when every triple is a distinct candidate triple with a
   positive probability, every (user, time) display holds at most k items
   and every item reaches at most [capacity i] distinct users
   (default: q_i). Returns the first few violations; [] = valid. *)
let plan_errors ?capacity inst plan =
  let cap = match capacity with Some c -> c | None -> Instance.capacity inst in
  let nu = Instance.num_users inst and ni = Instance.num_items inst in
  let h = Instance.horizon inst and k = Instance.display_limit inst in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let seen = Hashtbl.create 1024 and display = Hashtbl.create 1024 in
  let holders = Hashtbl.create 1024 and users_of = Array.make ni 0 in
  List.iter
    (fun (u, i, t) ->
      if u < 0 || u >= nu || i < 0 || i >= ni || t < 1 || t > h then
        err "triple (%d, %d, %d) is out of range" u i t
      else begin
        if Hashtbl.mem seen (u, i, t) then err "triple (%d, %d, %d) appears twice" u i t
        else Hashtbl.add seen (u, i, t) ();
        if (not (Instance.is_candidate inst ~u ~i)) || Instance.q inst ~u ~i ~time:t <= 0.0 then
          err "triple (%d, %d, %d) is not a candidate" u i t;
        let shown = Option.value (Hashtbl.find_opt display (u, t)) ~default:0 in
        Hashtbl.replace display (u, t) (shown + 1);
        if not (Hashtbl.mem holders (i, u)) then begin
          Hashtbl.add holders (i, u) ();
          users_of.(i) <- users_of.(i) + 1
        end
      end)
    plan;
  Hashtbl.iter
    (fun (u, t) c -> if c > k then err "display (%d, %d) holds %d items, k = %d" u t c k)
    display;
  Array.iteri
    (fun i c -> if c > cap i then err "item %d reaches %d users, capacity %d" i c (cap i))
    users_of;
  first_errors (List.rev !errs)

(* The dynamic adoption probability of every planned triple, by
   Definition 1:
     qS(u,i,t) = q(u,i,t) · β_i^{M} · Π (1 − q(u,j,τ))
   where the memory M = Σ 1/(t − τ) (Equation 1) runs over the plan's
   same-user same-class triples (u, j, τ) with τ < t, and the product over
   those with τ < t, or τ = t and j ≠ i. Chains are grouped here from
   scratch; nothing is read from the planner's chain index. *)
let dynamic_probabilities inst plan =
  let chains = Hashtbl.create 1024 in
  List.iter
    (fun (u, i, t) ->
      let key = (u, Instance.class_of inst i) in
      Hashtbl.replace chains key ((i, t) :: Option.value (Hashtbl.find_opt chains key) ~default:[]))
    plan;
  Hashtbl.fold
    (fun (u, _) members acc ->
      List.fold_left
        (fun acc (i, t) ->
          let memory, comp =
            List.fold_left
              (fun (m, c) (j, tau) ->
                let m = if tau < t then m +. (1.0 /. float_of_int (t - tau)) else m in
                let c =
                  if tau < t || (tau = t && j <> i) then
                    c *. (1.0 -. Instance.q inst ~u ~i:j ~time:tau)
                  else c
                in
                (m, c))
              (0.0, 1.0) members
          in
          let q = Instance.q inst ~u ~i ~time:t in
          ((u, i, t), q *. (Instance.saturation inst i ** memory) *. comp) :: acc)
        acc members)
    chains []

(* Rev(S) = Σ_{(u,i,t) ∈ S} p(i,t) · qS(u,i,t) *)
let revenue inst plan =
  List.fold_left
    (fun acc ((_, i, t), q) -> acc +. (Instance.price inst ~i ~time:t *. q))
    0.0
    (dynamic_probabilities inst plan)

(* A planned triple whose dynamic probability is 0 earns nothing, yet
   holds a display slot and a unit of its item's capacity. *)
let worthless_errors inst plan =
  first_errors
    (List.filter_map
       (fun ((u, i, t), q) ->
         if q > 0.0 then None
         else Some (Printf.sprintf "triple (%d, %d, %d) is planned with dynamic probability 0" u i t))
       (List.sort compare (dynamic_probabilities inst plan)))

let rel_diff a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs b)

(* The planner's own Rev(S) must agree with the evaluator above. *)
let revenue_errors inst plan ~planner_revenue =
  let v = revenue inst plan in
  if rel_diff planner_revenue v <= 1e-9 then []
  else [ Printf.sprintf "planner revenue %.17g, evaluator %.17g" planner_revenue v ]

(* A Topk answer for (u, time): at most k distinct items, scores
   non-increasing, each score in (0, p(i, time)]. With [plan], every item
   must also be planned for (u, i, time). With [~zero_ok:true] a score of
   exactly 0 passes: it is the served form of a worthless planned triple
   (see [worthless_errors]), which greedy plans keep on some inputs only. *)
let topk_errors ?plan ?(zero_ok = false) inst ~u ~time items =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let k = Instance.display_limit inst in
  if List.length items > k then err "topk (%d, %d): %d items, k = %d" u time (List.length items) k;
  if List.length (List.sort_uniq compare (List.map fst items)) <> List.length items then
    err "topk (%d, %d): repeated item" u time;
  ignore
    (List.fold_left
       (fun prev (i, score) ->
         if i < 0 || i >= Instance.num_items inst then
           err "topk (%d, %d): item %d out of range" u time i
         else begin
           let p = Instance.price inst ~i ~time in
           if not ((score > 0.0 || (zero_ok && score = 0.0)) && score <= p) then
             err "topk (%d, %d): item %d scores %.17g outside (0, %.17g]" u time i score p;
           match plan with
           | Some planned when not (Hashtbl.mem planned (u, i, time)) ->
               err "topk (%d, %d): item %d is not planned" u time i
           | _ -> ()
         end;
         if score > prev then err "topk (%d, %d): scores increase" u time;
         score)
       infinity items);
  first_errors (List.rev !errs)

(* What a serving event stream must leave behind, folded from the events
   alone: realized revenue is Σ p(i, t) over the first Adopt of each
   (u, i); every first Adopt consumes one unit of item i, and a Cap event
   moves the consumed stock by its delta; stock stays within [0, q_i]. *)
type serve_fold = { realized : float; consumed : int array; adopted : (int * int, unit) Hashtbl.t }

let fold_events inst events =
  let consumed = Array.make (Instance.num_items inst) 0 in
  let adopted = Hashtbl.create 256 in
  let realized = ref 0.0 in
  let clamp i v = max 0 (min (Instance.capacity inst i) v) in
  List.iter
    (fun (ev : Revmax_serve.Journal.event) ->
      match ev with
      | Adopt { u; i; t } ->
          if not (Hashtbl.mem adopted (u, i)) then begin
            Hashtbl.add adopted (u, i) ();
            realized := !realized +. Instance.price inst ~i ~time:t;
            consumed.(i) <- clamp i (consumed.(i) + 1)
          end
      | Cap { i; delta } -> consumed.(i) <- clamp i (consumed.(i) + delta)
      | Click _ | Repair -> ())
    events;
  { realized = !realized; consumed; adopted }

(* The served plan at the end of a stream: valid against the capacities
   left after the consumed stock, and holding no adopted pair. *)
let served_plan_errors inst fold plan =
  let left i = Instance.capacity inst i - fold.consumed.(i) in
  let adopted =
    List.filter_map
      (fun (u, i, t) ->
        if Hashtbl.mem fold.adopted (u, i) then
          Some (Printf.sprintf "adopted pair (%d, %d) still planned at t = %d" u i t)
        else None)
      plan
  in
  first_errors (plan_errors ~capacity:left inst plan @ adopted)
