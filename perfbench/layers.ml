(* The traced run's per-layer sweep. Each probe calls one layer's public
   functions on the workload's own instance and plan and times the call
   from here; counts come from the planners' statistics or from the
   program's Metrics registry. Every workload runs the whole sweep, so
   every layer metric is measured on every workload; the README says which
   end-to-end metric each one should move, and on which workload. *)

module Instance = Revmax.Instance
module Strategy = Revmax.Strategy
module Triple = Revmax.Triple
module Greedy = Revmax.Greedy
module Shard_greedy = Revmax.Shard_greedy
module Metrics = Revmax_prelude.Metrics
module Rng = Revmax_prelude.Rng
module Server = Revmax_serve.Server
module Journal = Revmax_serve.Journal
module Hier_greedy = Revmax_hier.Hier_greedy
module Wire = Revmax_hier.Wire
open Measure

(* What the workload hands to the sweep. *)
type input = {
  inst : Instance.t;
  plan : Strategy.t;  (** the plan of the workload's last round *)
  plan_s : float;  (** median wall time of the workload's planner call *)
  planner : unit -> unit;  (** one more call of the workload's planner *)
  evaluations : int;
  pops : int;
  selected : int;
  create_s : float;  (** median time to build the instance *)
  pack : (float * int * float) option;
      (** (write s, bytes, of_mmap s) when the workload builds through a pack *)
  shards : int;  (** the user shards the workload's sharded plan uses *)
  seed : int;
  serve_events : int;  (** events applied to the in-process server *)
  scratch : string;  (** a directory this run owns *)
}

let counter snap name =
  match List.assoc_opt name snap with Some (Metrics.Counter n) -> n | _ -> 0

let summary_sum snap name =
  match List.assoc_opt name snap with Some (Metrics.Summary s) -> (s.count, s.sum) | _ -> (0, 0.0)

(* run [f] with the registry recording; returns its result and the
   registry's activity during the call *)
let recorded f =
  Metrics.set_enabled true;
  let before = Metrics.snapshot () in
  let r = Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f in
  (r, Metrics.diff ~before ~after:(Metrics.snapshot ()))

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* nanoseconds per call of [f] over [xs], median of [reps] passes *)
let ns_per_call ~reps xs f =
  let n = max 1 (List.length xs) in
  1e9 *. median_time ~reps (fun () -> List.iter f xs) /. float_of_int n

(* ----- Instance, Scalability, pack ----- *)

let instance_layers x =
  let shard_s = median_time ~reps:21 (fun () -> ignore (Instance.shard ~shards:x.shards x.inst)) in
  let write_s, bytes, open_s =
    match x.pack with
    | Some p -> p
    | None ->
        let path = Filename.concat x.scratch "layer.pack" in
        let (), write_s = time (fun () -> Instance.pack_to_file x.inst path) in
        let bytes = (Unix.stat path).Unix.st_size in
        let _, open_s = time (fun () -> Instance.of_mmap path) in
        Sys.remove path;
        (write_s, bytes, open_s)
  in
  [
    m "instance.create_s" "s" x.create_s;
    m "pack.write_s" "s" write_s;
    m "pack.bytes" "bytes" (float_of_int bytes);
    m "instance.of_mmap_s" "s" open_s;
    m "instance.shard_s" "s" shard_s;
  ]

(* ----- oracle, heap and accept path ----- *)

(* candidate triples outside the plan, drawn from the seed *)
let candidate_sample x n =
  let rng = Rng.create (x.seed lxor 0x0a1c1e) in
  let nu = Instance.num_users x.inst and h = Instance.horizon x.inst in
  let rec draw acc tries =
    if List.length acc >= n || tries > 50 * n then acc
    else
      let u = Rng.int rng nu in
      let row = Instance.candidates x.inst u in
      if Array.length row = 0 then draw acc (tries + 1)
      else
        let i, _ = row.(Rng.int rng (Array.length row)) in
        let z = Triple.make ~u ~i ~t:(1 + Rng.int rng h) in
        if Strategy.mem x.plan z then draw acc (tries + 1) else draw (z :: acc) (tries + 1)
  in
  draw [] 0

(* minor words per accepted triple, as the greedy allocation gate measures
   it: the full run's words minus those of a run stopped after its first
   selection (the build phase), over the remaining selections *)
let words_per_selection inst =
  let words_of f =
    let w0 = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. w0)
  in
  let budget = Revmax_prelude.Budget.create ~max_evaluations:1 () in
  let (_, st1), w_build = words_of (fun () -> Greedy.run ~budget inst) in
  let (_, st2), w_full = words_of (fun () -> Greedy.run inst) in
  (w_full -. w_build) /. float_of_int (max 1 (st2.Greedy.selected - st1.Greedy.selected))

let oracle_layers x =
  let sample = candidate_sample x 2000 in
  let marginal_ns =
    ns_per_call ~reps:7 sample (fun z -> ignore (Revmax.Revenue.marginal_incremental x.plan z))
  in
  let (), snap = recorded x.planner in
  let major_words =
    let before = (Gc.quick_stat ()).Gc.major_words in
    x.planner ();
    (Gc.quick_stat ()).Gc.major_words -. before
  in
  let triples = Strategy.to_list x.plan in
  let add_ns =
    1e9
    *. median_time ~reps:5 (fun () ->
           let s = Strategy.create x.inst in
           List.iter (fun z -> Strategy.add s z) triples)
    /. float_of_int (max 1 (List.length triples))
  in
  [
    m "revenue.marginal_ns" "ns" marginal_ns;
    m "greedy.evaluations" "count" (float_of_int x.evaluations);
    m "greedy.ns_per_eval" "ns" (1e9 *. x.plan_s /. float_of_int (max 1 x.evaluations));
    m "greedy.pops" "count" (float_of_int x.pops);
    m "two_level_heap.refresh_pairs" "count"
      (float_of_int (counter snap "two_level_heap.refresh_pairs"));
    m "greedy.selected" "count" (float_of_int x.selected);
    m "greedy.words_per_selection" "words" (words_per_selection x.inst);
    m "strategy.add_ns" "ns" add_ns;
    m "plan.major_words" "words" major_words;
    m "strategy.to_list_us" "us"
      (1e6 *. median_time ~reps:21 (fun () -> ignore (Strategy.to_list x.plan)));
  ]

(* ----- Shard_greedy, Hier_greedy and the hier Wire ----- *)

(* the shard views' local greedy plans, as Shard_greedy's first phase runs them *)
let local_plans inst shards =
  let views = Instance.shard ~shards inst in
  Array.map (fun v -> Greedy.run v) views

(* bytes of the Shard_result frames the hier workers send, computed by
   encoding the local plans with the hier Wire into a scratch file *)
let wire_bytes x locals =
  let path = Filename.concat x.scratch "layer.wire" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Sys.remove path)
    (fun () ->
      Array.iteri
        (fun shard (s, (st : Greedy.stats)) ->
          Wire.send fd
            (Wire.Shard_result
               {
                 shard;
                 selected = st.selected;
                 evaluations = st.marginal_evaluations;
                 pops = st.pops;
                 truncated = st.truncated;
                 triples = Array.of_list (Strategy.to_list s);
                 slots = [||];
               }))
        locals;
      (Unix.fstat fd).Unix.st_size)

let shard_layers x =
  (* reconciliation is a difference of two timings, so each is the fastest
     of three: without contention it is within noise of 0 and may read
     slightly negative *)
  let local_s = min_time ~reps:3 (fun () -> ignore (local_plans x.inst x.shards)) in
  let solve () = Shard_greedy.solve ~shards:x.shards ~jobs:1 x.inst in
  let solve_s = min_time ~reps:3 (fun () -> ignore (solve ())) in
  let s, st = solve () in
  let pairs =
    List.sort_uniq compare (List.map (fun (z : Triple.t) -> (z.u, z.i)) (Strategy.to_list s))
  in
  let pairs = List.filteri (fun n _ -> n mod (1 + (List.length pairs / 1000)) = 0) pairs in
  let loss_ns =
    ns_per_call ~reps:7 pairs (fun (u, i) ->
        ignore (Shard_greedy.removal_loss ~with_saturation:true x.inst s ~u ~i))
  in
  let violations_s = median_time ~reps:5 (fun () -> ignore (Strategy.violations s)) in
  let locals2 = local_plans x.inst 2 in
  let _, snap =
    recorded (fun () -> Hier_greedy.solve ~procs:2 ~shards_per_proc:1 ~jobs:1 x.inst)
  in
  let _, inproc_s = time (fun () -> Shard_greedy.solve ~shards:2 ~jobs:1 x.inst) in
  [
    m "shard_greedy.local_plan_s" "s" local_s;
    m "shard_greedy.reconcile_s" "s" (solve_s -. local_s);
    m "shard_greedy.rounds" "count" (float_of_int st.reconciliation_rounds);
    m "shard_greedy.released_pairs" "count" (float_of_int st.released_pairs);
    m "shard_greedy.replanned" "count" (float_of_int st.replanned);
    m "shard_greedy.removal_loss_ns" "ns" loss_ns;
    m "strategy.violations_s" "s" violations_s;
    m "hier_greedy.inproc_s" "s" inproc_s;
    m "wire.bytes" "bytes" (float_of_int (wire_bytes x locals2));
    m "hier_greedy.frames" "count" (float_of_int (counter snap "hier_greedy.frames_received"));
  ]

(* ----- Server, Server.Wire, Journal ----- *)

let server_layers x =
  let dir = Filename.concat x.scratch "layer-serve" in
  remove_dir dir;
  let cfg = Server.default_config ~data_dir:dir in
  let st, boot_s = time (fun () -> Server.create cfg x.inst) in
  let snapshot_s = median_time ~reps:3 (fun () -> ignore (Server.save_snapshot st)) in
  let k = Instance.display_limit x.inst in
  let adopt = ref [] and click = ref [] and topk = ref [] in
  let wl = Revmax_serve.Driver.synth_workload x.inst ~seed:x.seed ~events:x.serve_events in
  let (), snap =
    recorded (fun () ->
        List.iter
          (fun (ev : Journal.event) ->
            let r, dt = time (fun () -> Server.apply st ev) in
            if Result.is_error r then failwith "in-process server refused an event";
            match ev with
            | Adopt { u; t; _ } | Click { u; t; _ } ->
                (match ev with Adopt _ -> adopt := dt :: !adopt | _ -> click := dt :: !click);
                topk := snd (time (fun () -> Server.topk st ~u ~time:t ~k)) :: !topk
            | Cap _ | Repair -> ())
          wl)
  in
  Server.close st;
  remove_dir dir;
  let replans, replan_sum = summary_sum snap "serve.replan_seconds" in
  let req = Server.Wire.Topk { u = 1; time = 1; k } in
  let items = List.init k (fun i -> (i, 1.0 /. float_of_int (i + 1))) in
  let resp = Server.Wire.Items { stale = false; items } in
  let roundtrip () =
    for _ = 1 to 1000 do
      ignore (Server.Wire.decode_request (Server.Wire.encode_request req));
      ignore (Server.Wire.decode_response (Server.Wire.encode_response resp))
    done
  in
  let roundtrip_us = 1e6 *. median_time ~reps:7 roundtrip /. 1000.0 in
  let jpath = Filename.concat x.scratch "layer.wal" in
  let appends, jsnap =
    recorded (fun () ->
        let j, _ = Journal.openw ~sync_every:1 jpath in
        let appends =
          List.init 200 (fun n ->
              let ev = Journal.Adopt { u = n; i = n; t = 1 } in
              snd (time (fun () -> Journal.append j ~seq:(Int64.of_int (n + 1)) ev)))
        in
        Journal.close j;
        appends)
  in
  Sys.remove jpath;
  [
    m "server.boot_s" "s" boot_s;
    m "server.snapshot_s" "s" snapshot_s;
    m "server.apply_adopt_ms" "ms" (1e3 *. mean !adopt);
    m "server.replan_ms" "ms" (1e3 *. replan_sum /. float_of_int (max 1 replans));
    m "server.replans" "count" (float_of_int replans);
    m "server.released_pairs" "count" (float_of_int (counter snap "serve.released_pairs"));
    m "server.apply_click_us" "us" (1e6 *. median !click);
    m "server.topk_us" "us" (1e6 *. median !topk);
    m "server_wire.roundtrip_us" "us" roundtrip_us;
    m "journal.append_us" "us" (1e6 *. median appends);
    m "journal.syncs" "count" (float_of_int (counter jsnap "journal.syncs"));
  ]

(* The whole sweep. Nothing in it spawns a domain, so the hier probe can
   still fork (OCaml 5.1 refuses fork once a domain has been spawned). *)
let sweep x = instance_layers x @ oracle_layers x @ shard_layers x @ server_layers x
