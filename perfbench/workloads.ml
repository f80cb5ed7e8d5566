(* The four workloads. A run repeats whole rounds of one workload until
   its time is up; every round sets up from scratch, runs the same timed
   operations and checks their outputs. Every round draws a new input from
   the run's seed and its own index, so a run's figures are medians over
   as many inputs as it has rounds, not properties of one instance. *)

module Instance = Revmax.Instance
module Strategy = Revmax.Strategy
module Triple = Revmax.Triple
module Greedy = Revmax.Greedy
module Shard_greedy = Revmax.Shard_greedy
module Revenue = Revmax.Revenue
module Metrics = Revmax_prelude.Metrics
module Scalability = Revmax_datagen.Scalability
module Hier_greedy = Revmax_hier.Hier_greedy
module Server = Revmax_serve.Server
module Journal = Revmax_serve.Journal
open Measure

type stats = { evaluations : int; pops : int; selected : int; degraded : bool }

(* The last round's instance and plan, for the traced run's layer sweep. *)
type last = {
  inst : Instance.t;
  plan : Strategy.t;
  stats : stats option;  (** the planner's counts, where the round planned in-process *)
  pack : (float * int * float) option;  (** (write s, bytes, of_mmap s) *)
  seed : int;
}

(* What the rounds of one run observed. *)
type outcome = {
  mutable create : float list;  (** instance build times, s *)
  mutable setup : float list;  (** everything before the first timed operation, s *)
  mutable plan : float list;  (** planning operations with the registry off, s *)
  mutable traced_plan : float list;  (** the same with the registry recording, s *)
  mutable topk : float list;  (** Topk answers, s *)
  mutable revenue : float list;  (** Rev(S) of the first [rounds] plans, by the evaluator *)
  mutable zero_scores : int;  (** Topk items served with score 0 *)
  mutable rss_kb : int;  (** peak RSS after the first round's plan *)
  mutable server_rss_kb : int list;  (** each serve-stream server's own peak RSS *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable last : last option;
}

let outcome () =
  {
    create = [];
    setup = [];
    plan = [];
    traced_plan = [];
    topk = [];
    revenue = [];
    zero_scores = 0;
    rss_kb = 0;
    server_rss_kb = [];
    attempted = 0;
    failed = 0;
    errors = [];
    last = None;
  }

let fail o ~what msgs =
  if List.length o.errors < 20 then o.errors <- o.errors @ List.map (fun e -> what ^ ": " ^ e) msgs

let record_plan o ~traced dt =
  if traced then o.traced_plan <- dt :: o.traced_plan else o.plan <- dt :: o.plan

let triples_of s = List.map (fun (z : Triple.t) -> (z.u, z.i, z.t)) (Strategy.to_list s)

(* A Topk answer from a plan drawn from the seed. Greedy plans keep a
   worthless triple (dynamic probability 0) on some inputs only, and serve
   it with score 0. Such items are counted, not failed: a failure that
   shows on some seeds only would make the share of failed operations
   differ from run to run. [witness_op] fails the fault on every round
   instead. *)
let check_topk ?plan o inst ~u ~time items =
  o.zero_scores <- o.zero_scores + List.length (List.filter (fun (_, sc) -> sc = 0.0) items);
  fail o ~what:"topk" (Check.topk_errors ?plan ~zero_ok:true inst ~u ~time items)

(* The worthless-triple witness: a fixed §6-family instance, the same for
   every seed, on which the flat greedy plan keeps the triple (4, 2, 4)
   although a later-selected same-class triple with q = 1 has zeroed its
   dynamic probability. Planning and checking it is one operation of every
   round of the §6 workloads. It fails on every round until the planner
   drops such triples, so it is counted in [failed]: the share of failed
   operations is the same in every run, and [correct] speaks of the
   operations that did not fail. Any other fault of the plan is an error. *)
let witness_op o =
  let inst =
    Scalability.generate
      (Inputs.section6 ~users:20 ~items:16 ~classes:2 ~items_per_user:10 ~horizon:4 ~k:3)
      ~seed:33
  in
  let plan = triples_of (fst (Greedy.run inst)) in
  o.attempted <- o.attempted + 1;
  fail o ~what:"witness" (Check.plan_errors inst plan);
  if Check.worthless_errors inst plan <> [] then o.failed <- o.failed + 1

type t = {
  name : string;
  rounds : int;
      (** every run makes at least this many rounds, and plan_revenue is the
          mean over their inputs: a count that does not depend on the run's
          speed *)
  round : outcome -> index:int -> traced:bool -> unit;
  layers : outcome -> metric list;
}

(* the layer sweep over the last round's instance and plan *)
let sweep o ~scratch ~planner ~plan_s ~(stats : stats) ~shards ~serve_events (l : last) =
  Layers.sweep
    {
      Layers.inst = l.inst;
      plan = l.plan;
      plan_s;
      planner = (fun () -> planner l.inst);
      evaluations = stats.evaluations;
      pops = stats.pops;
      selected = stats.selected;
      create_s = median o.create;
      pack = l.pack;
      shards;
      seed = l.seed;
      serve_events;
      scratch;
    }

(* ----- planning workloads ----- *)

type planning = {
  build : seed:int -> Instance.t * (float * int * float) option;
      (** the instance, and (write s, bytes, of_mmap s) when built through a pack *)
  solve : Instance.t -> Strategy.t * stats;
  reference : (Instance.t -> Strategy.t) option;  (** a plan the result must equal *)
  shards : int;  (** the user shard count of the layer sweep's sharded probes *)
  witness : bool;  (** a §6-family workload, which also runs [witness_op] *)
  rounds : int;
  queries : int;  (** Topk queries answered against each fresh plan *)
}

(* the seed of round [index]'s input *)
let input_seed ~seed index = (seed lsl 20) + index

let record_revenue o ~rounds ~index rev = if index < rounds then o.revenue <- rev :: o.revenue

let planning_round p ~seed o ~index ~traced =
  let seed = input_seed ~seed index in
  Gc.full_major ();
  let (inst, pack), setup_s = time (fun () -> p.build ~seed) in
  o.create <- setup_s :: o.create;
  o.setup <- setup_s :: o.setup;
  Metrics.set_enabled traced;
  let (s, st), dt =
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled false)
      (fun () -> time (fun () -> p.solve inst))
  in
  record_plan o ~traced dt;
  o.attempted <- o.attempted + 1;
  if st.degraded then o.failed <- o.failed + 1;
  let k = Instance.display_limit inst in
  let answers =
    List.map
      (fun (u, time_) ->
        let items, dt = time (fun () -> Server.topk_of_strategy inst s ~u ~time:time_ ~k) in
        o.topk <- dt :: o.topk;
        (u, time_, items))
      (Inputs.queries ~seed inst p.queries)
  in
  o.attempted <- o.attempted + p.queries;
  if index = 0 then o.rss_kb <- vm_hwm_kb ();
  let plan = triples_of s in
  fail o ~what:"plan" (Check.plan_errors inst plan);
  fail o ~what:"revenue" (Check.revenue_errors inst plan ~planner_revenue:(Revenue.total s));
  let planned = Hashtbl.create (List.length plan) in
  List.iter (fun z -> Hashtbl.replace planned z ()) plan;
  List.iter (fun (u, time_, items) -> check_topk ~plan:planned o inst ~u ~time:time_ items) answers;
  (match p.reference with
  | None -> ()
  | Some reference ->
      let r = reference inst in
      let bits s = Int64.bits_of_float (Revenue.total s) in
      if triples_of r <> plan || bits r <> bits s then
        fail o ~what:"fingerprint" [ "plan differs from the in-process reference plan" ]);
  record_revenue o ~rounds:p.rounds ~index (Check.revenue inst plan);
  if p.witness then witness_op o;
  o.last <- Some { inst; plan = s; stats = Some st; pack; seed }

let planning_workload name p ~seed ~scratch =
  {
    name;
    rounds = p.rounds;
    round = planning_round p ~seed;
    layers =
      (fun o ->
        match o.last with
        | Some ({ stats = Some stats; _ } as l) ->
            sweep o ~scratch
              ~planner:(fun inst -> ignore (p.solve inst))
              ~plan_s:(median o.plan) ~stats ~shards:p.shards ~serve_events:40 l
        | _ -> []);
  }

let long_chains ~tiny =
  let users = if tiny then 12 else 120 in
  {
    build = (fun ~seed -> (Inputs.long_chain ~seed ~users ~items:40 ~capacity:Fun.id, None));
    solve =
      (fun inst ->
        let s, (st : Greedy.stats) = Greedy.run inst in
        ( s,
          {
            evaluations = st.marginal_evaluations;
            pops = st.pops;
            selected = st.selected;
            degraded = false;
          } ));
    reference = None;
    shards = 2;
    witness = false;
    rounds = (if tiny then 4 else 48);
    queries = 40;
  }

let contended_shards ~tiny =
  let users = if tiny then 12 else 50 in
  {
    build =
      (fun ~seed ->
        (Inputs.long_chain ~seed ~users ~items:40 ~capacity:(fun n -> max 1 (n / 3)), None));
    solve =
      (fun inst ->
        let s, (st : Shard_greedy.stats) = Shard_greedy.solve ~shards:4 ~jobs:1 inst in
        ( s,
          {
            evaluations = st.marginal_evaluations;
            pops = st.pops;
            selected = st.selected;
            degraded = false;
          } ));
    reference = None;
    shards = 4;
    witness = false;
    rounds = (if tiny then 4 else 40);
    queries = 40;
  }

let packed_hier ~tiny ~scratch =
  let users, items = if tiny then (60, 120) else (1500, 300) in
  let cfg = Inputs.section6 ~users ~items ~classes:(items / 8) ~items_per_user:10 ~horizon:4 ~k:3 in
  let path = Filename.concat scratch "instance.pack" in
  {
    build =
      (fun ~seed ->
        let (), write_s = time (fun () -> Scalability.generate_pack cfg ~seed ~path) in
        let bytes = (Unix.stat path).Unix.st_size in
        let inst, open_s = time (fun () -> Instance.of_mmap path) in
        (* the mapping outlives the name *)
        Sys.remove path;
        (inst, Some (write_s, bytes, open_s)));
    solve =
      (fun inst ->
        let s, (st : Hier_greedy.stats) =
          Hier_greedy.solve ~procs:2 ~shards_per_proc:1 ~jobs:1 inst
        in
        ( s,
          {
            evaluations = st.marginal_evaluations;
            pops = st.pops;
            selected = st.selected;
            degraded = st.degraded;
          } ));
    reference = Some (fun inst -> fst (Shard_greedy.solve ~shards:2 ~jobs:1 inst));
    shards = 2;
    witness = true;
    rounds = (if tiny then 4 else 32);
    (* each answer sorts the whole 18k-triple plan *)
    queries = 10;
  }

(* ----- serve-stream ----- *)

let rpc fd req =
  Server.Wire.write_frame fd (Server.Wire.encode_request req);
  match Server.Wire.read_frame fd with
  | None -> failwith "server closed the connection"
  | Some b -> (
      match Server.Wire.decode_response b with
      | Ok r -> r
      | Error msg -> failwith ("undecodable response: " ^ msg))

(* serve-stream's input: a small §6-family instance *)
let serve_instance ~tiny ~seed =
  let users, items = if tiny then (30, 40) else (100, 100) in
  Scalability.generate
    (Inputs.section6 ~users ~items ~classes:(items / 8) ~items_per_user:10 ~horizon:4 ~k:3)
    ~seed

(* The server process: [perfbench --serve-child SEED DIR TINY TRACED],
   talking Server.Wire on fd 0. It builds its own instance from the seed
   and boots with the default config; after Shutdown it hands its own peak
   RSS back as one more frame. *)
let serve_child ~seed ~dir ~tiny ~traced =
  let fd = Unix.stdin in
  Metrics.set_enabled traced;
  let st = Server.create (Server.default_config ~data_dir:dir) (serve_instance ~tiny ~seed) in
  Server.serve st ~in_fd:fd ~out_fd:fd;
  Server.close st;
  Server.Wire.write_frame fd (Bytes.of_string (string_of_int (vm_hwm_kb ())))

(* A fresh process, so that its memory and heap owe nothing to the client. *)
let spawn_server ~seed ~dir ~tiny ~traced =
  flush stdout;
  flush stderr;
  let ours, theirs = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 -> (
      try
        Unix.dup2 ~cloexec:false theirs Unix.stdin;
        (* stdout is the client's result channel *)
        Unix.dup2 ~cloexec:false Unix.stderr Unix.stdout;
        Unix.execv Sys.executable_name
          [|
            Sys.executable_name; "--serve-child"; string_of_int seed; dir; string_of_bool tiny;
            string_of_bool traced;
          |]
      with _ -> Unix._exit 127)
  | pid ->
      Unix.close theirs;
      (pid, ours)

(* Every event is followed by one Topk probe: at the event's own display
   for an Adopt or a Click, at a display drawn from the seed for a Cap or a
   Repair. So every round attempts the same number of operations. *)
let serve_events ~tiny = if tiny then 60 else 150

let serve_rounds ~tiny = if tiny then 4 else 64

let serve_round ~tiny ~seed ~scratch o ~index ~traced =
  let seed = input_seed ~seed index in
  let events = serve_events ~tiny in
  Gc.full_major ();
  let inst, create_s = time (fun () -> serve_instance ~tiny ~seed) in
  let evs = Revmax_serve.Driver.synth_workload inst ~seed:(seed + 1) ~events in
  let probes = Array.of_list (Inputs.queries ~seed inst events) in
  let dir = Filename.concat scratch "serve" in
  Layers.remove_dir dir;
  let (pid, fd), setup_s =
    time (fun () ->
        let c = spawn_server ~seed ~dir ~tiny ~traced in
        (match rpc (snd c) Server.Wire.Stats with
        | Server.Wire.Stats_r { seq = 0L; _ } -> ()
        | _ -> failwith "unexpected answer to the boot Stats");
        c)
  in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Layers.remove_dir dir)
  @@ fun () ->
  o.create <- create_s :: o.create;
  o.setup <- setup_s :: o.setup;
  let k = Instance.display_limit inst in
  List.iteri
    (fun n (ev : Journal.event) ->
      let r, dt = time (fun () -> rpc fd (Server.Wire.Event ev)) in
      o.attempted <- o.attempted + 1;
      (match r with
      | Server.Wire.Ack { seq; _ } when seq = Int64.of_int (n + 1) -> ()
      | Server.Wire.Ack { seq; _ } ->
          fail o ~what:"serve" [ Printf.sprintf "event %d acked as seq %Ld" (n + 1) seq ]
      | Server.Wire.Err_r _ -> o.failed <- o.failed + 1
      | _ -> fail o ~what:"serve" [ "unexpected answer to an event" ]);
      let u, t =
        match ev with
        | Adopt { u; t; _ } ->
            record_plan o ~traced dt;
            (u, t)
        | Click { u; t; _ } -> (u, t)
        | Cap _ | Repair -> probes.(n)
      in
      let r, dt = time (fun () -> rpc fd (Server.Wire.Topk { u; time = t; k })) in
      o.attempted <- o.attempted + 1;
      match r with
      | Server.Wire.Items { items; _ } ->
          o.topk <- dt :: o.topk;
          check_topk o inst ~u ~time:t items
      | Server.Wire.Err_r _ -> o.failed <- o.failed + 1
      | _ -> fail o ~what:"serve" [ "unexpected answer to a Topk" ])
    evs;
  let fold = Check.fold_events inst evs in
  (match rpc fd Server.Wire.Stats with
  | Server.Wire.Stats_r { seq; realized; _ } ->
      if seq <> Int64.of_int events then
        fail o ~what:"serve" [ Printf.sprintf "final seq %Ld after %d events" seq events ];
      if Check.rel_diff realized fold.realized > 1e-9 then
        fail o ~what:"serve"
          [ Printf.sprintf "realized %.17g, events say %.17g" realized fold.realized ]
  | _ -> fail o ~what:"serve" [ "unexpected answer to Stats" ]);
  let plan =
    match rpc fd Server.Wire.Dump with
    | Server.Wire.Dump_r l -> l
    | _ -> failwith "unexpected answer to Dump"
  in
  (match rpc fd Server.Wire.Shutdown with
  | Server.Wire.Ack _ -> ()
  | _ -> fail o ~what:"serve" [ "unexpected answer to Shutdown" ]);
  (match Server.Wire.read_frame fd with
  | Some b ->
      let kb = Option.value (int_of_string_opt (Bytes.to_string b)) ~default:0 in
      o.server_rss_kb <- kb :: o.server_rss_kb
  | None -> fail o ~what:"serve" [ "server sent no peak RSS" ]);
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail o ~what:"serve" [ "server exited abnormally" ]);
  finished := true;
  fail o ~what:"served plan" (Check.served_plan_errors inst fold plan);
  let s = Strategy.of_list inst (List.map (fun (u, i, t) -> Triple.make ~u ~i ~t) plan) in
  fail o ~what:"served revenue" (Check.revenue_errors inst plan ~planner_revenue:(Revenue.total s));
  record_revenue o ~rounds:(serve_rounds ~tiny) ~index (Check.revenue inst plan);
  witness_op o;
  o.last <- Some { inst; plan = s; stats = None; pack = None; seed }

(* The serving workload's planner is the server's boot plan, a full greedy
   run; the sweep times it once more and takes its counts from it. *)
let serve_layers ~tiny ~scratch o =
  match o.last with
  | None -> []
  | Some l ->
      let (_, (st : Greedy.stats)), plan_s = time (fun () -> Greedy.run l.inst) in
      let stats =
        {
          evaluations = st.marginal_evaluations;
          pops = st.pops;
          selected = st.selected;
          degraded = false;
        }
      in
      sweep o ~scratch
        ~planner:(fun inst -> ignore (Greedy.run inst))
        ~plan_s ~stats ~shards:2 ~serve_events:(serve_events ~tiny) l

let names = [ "long-chains"; "contended-shards"; "packed-hier"; "serve-stream" ]

let make ~tiny ~seed ~scratch = function
  | "long-chains" -> Some (planning_workload "long-chains" (long_chains ~tiny) ~seed ~scratch)
  | "contended-shards" ->
      Some (planning_workload "contended-shards" (contended_shards ~tiny) ~seed ~scratch)
  | "packed-hier" ->
      Some (planning_workload "packed-hier" (packed_hier ~tiny ~scratch) ~seed ~scratch)
  | "serve-stream" ->
      let round = serve_round ~tiny ~seed ~scratch in
      Some
        { name = "serve-stream"; rounds = serve_rounds ~tiny; round; layers = serve_layers ~tiny ~scratch }
  | _ -> None
