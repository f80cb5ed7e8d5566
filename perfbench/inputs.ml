(* Input generators. Every input is a function of the workload seed alone;
   the program under test only ever sees the generated values. *)

module Rng = Revmax_prelude.Rng
module Instance = Revmax.Instance
module Scalability = Revmax_datagen.Scalability

(* The long-chain regime of the greedy benchmarks: two classes, a long
   horizon and mild probabilities, so greedy keeps finding positive
   marginals and grows (user, class) chains tens of triples deep. 80% of
   the (user, item) pairs are candidates, q ~ U[0.02, 0.10], β ~ U[0.7, 1],
   prices ~ U[1, 10]. [capacity] maps the user count to every item's q_i. *)
let long_chain ~seed ~users ~items ~capacity =
  let horizon = 15 and k = 5 and classes = 2 in
  let rng = Rng.create seed in
  let adoption = ref [] in
  for u = 0 to users - 1 do
    for i = 0 to items - 1 do
      if Rng.bernoulli rng 0.8 then
        adoption := (u, i, Array.init horizon (fun _ -> Rng.uniform_in rng 0.02 0.10)) :: !adoption
    done
  done;
  Instance.create ~num_users:users ~num_items:items ~horizon ~display_limit:k
    ~class_of:(Array.init items (fun i -> i mod classes))
    ~capacity:(Array.make items (capacity users))
    ~saturation:(Array.init items (fun _ -> Rng.uniform_in rng 0.7 1.0))
    ~price:(Array.init items (fun _ -> Array.init horizon (fun _ -> Rng.uniform_in rng 1.0 10.0)))
    ~adoption:!adoption ()

(* The §6 scalability family (paper capacity ratio, β ~ U[0, 1]), thinned
   to [items_per_user] candidate items per user. *)
let section6 ~users ~items ~classes ~items_per_user ~horizon ~k =
  Scalability.with_users
    {
      Scalability.default_config with
      num_items = items;
      num_classes = classes;
      items_per_user;
      horizon;
      display_limit = k;
    }
    users

(* [n] Topk queries (user, time), drawn from the seed *)
let queries ~seed inst n =
  let rng = Rng.create (seed lxor 0x5eed) in
  List.init n (fun _ ->
      let u = Rng.int rng (Instance.num_users inst) in
      (u, 1 + Rng.int rng (Instance.horizon inst)))
