module Sql = Orq_planner.Sql
module Joincost = Orq_core.Joincost
module Locked = Orq_util.Locked

(* A single-flight ticket: the first thread to miss on a key becomes the
   leader and executes; followers park on the condition until the leader
   resolves with a value (replayed to them) or aborts (they retry). The
   flight lock ranks just above the cache lock, so a leader may publish
   under the cache lock and then wake followers — never the reverse. *)
type 'a flight = {
  f_m : Locked.t;
  f_c : Condition.t;
  mutable f_done : bool;
  mutable f_value : 'a option;  (** [None] after an aborted flight *)
}

type 'a t = {
  capacity : int;
  tbl : (string, 'a) Hashtbl.t;
  flights : (string, 'a flight) Hashtbl.t;
  order : string Queue.t;  (** insertion order for FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  m : Locked.t;
}

type 'a acquire =
  | Cached of 'a
  | Execute of 'a flight
  | Coalesced of 'a option

let create ~capacity =
  {
    capacity = max 0 capacity;
    tbl = Hashtbl.create 64;
    flights = Hashtbl.create 16;
    order = Queue.create ();
    hits = 0;
    misses = 0;
    coalesced = 0;
    m = Locked.create ~name:"plan_cache" ~rank:30 ();
  }

let with_lock t f = Locked.with_lock t.m f

let fresh_flight () =
  {
    f_m = Locked.create ~name:"plan_flight" ~rank:35 ();
    f_c = Condition.create ();
    f_done = false;
    f_value = None;
  }

let normalize (sql : string) : string =
  match Sql.lex sql with
  | exception Sql.Parse_error _ -> String.trim sql
  | toks ->
      toks
      |> List.filter_map (function
           | Sql.Ident s -> Some s
           | Sql.Int i -> Some (string_of_int i)
           | Sql.Kw k -> Some k
           | Sql.Sym s -> Some s
           | Sql.Eof -> None)
      |> String.concat " "

(* The physical-plan configuration (Joincost mode + pacing profile) is a
   key component: two configurations that could pick different physical
   join operators for the same SQL never alias to one cached response. *)
let key ~proto ~version ~sql =
  Printf.sprintf "%s|%d|%s|%s" proto version
    (Joincost.cache_tag ())
    (normalize sql)

let store_unlocked t k v =
  if t.capacity > 0 && not (Hashtbl.mem t.tbl k) then begin
    if Queue.length t.order >= t.capacity then
      Hashtbl.remove t.tbl (Queue.pop t.order);
    Hashtbl.replace t.tbl k v;
    Queue.push k t.order
  end

(* Single-flight acquisition. With caching disabled (capacity 0) every
   caller is a leader on a private, unregistered ticket: cache-off means
   off — no replay, no coalescing — which is what the cold benchmarks
   rely on to execute every query. *)
let acquire t ~proto ~version ~sql : 'a acquire =
  if t.capacity = 0 then begin
    with_lock t (fun () -> t.misses <- t.misses + 1);
    Execute (fresh_flight ())
  end
  else
    let k = key ~proto ~version ~sql in
    let outcome =
      with_lock t (fun () ->
          match Hashtbl.find_opt t.tbl k with
          | Some v ->
              t.hits <- t.hits + 1;
              `Hit v
          | None -> (
              match Hashtbl.find_opt t.flights k with
              | Some f -> `Wait f
              | None ->
                  t.misses <- t.misses + 1;
                  let f = fresh_flight () in
                  Hashtbl.replace t.flights k f;
                  `Lead f))
    in
    match outcome with
    | `Hit v -> Cached v
    | `Lead f -> Execute f
    | `Wait f ->
        let v =
          Locked.with_lock f.f_m (fun () ->
              while not f.f_done do
                Locked.wait f.f_m f.f_c
              done;
              f.f_value)
        in
        with_lock t (fun () ->
            match v with
            | Some _ -> t.coalesced <- t.coalesced + 1
            | None -> ());
        Coalesced v

(* Leader completion: publish the value (or the abort) to the cache and
   wake every follower of this flight. *)
let resolve t ~proto ~version ~sql (f : 'a flight) (v : 'a option) =
  (if t.capacity > 0 then
     let k = key ~proto ~version ~sql in
     with_lock t (fun () ->
         (match v with Some v -> store_unlocked t k v | None -> ());
         (* only unregister our own ticket: an aborted flight may already
            have been replaced by a retrying follower's new one *)
         match Hashtbl.find_opt t.flights k with
         | Some f' when f' == f -> Hashtbl.remove t.flights k
         | _ -> ()));
  Locked.with_lock f.f_m (fun () ->
      f.f_value <- v;
      f.f_done <- true;
      Condition.broadcast f.f_c)

let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let coalesced t = with_lock t (fun () -> t.coalesced)
