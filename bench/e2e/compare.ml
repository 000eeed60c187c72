(* orq_bench compare OLD.json NEW.json: judge every (workload, end-to-end
   metric) of two `run` files against the bounds in BENCHMARK.json.

   A traffic count ([Suite.counts]) repeats exactly for a seed, so it is
   compared seed by seed over the seeds both files ran: worse when any
   seed's count moved the wrong way, better when some moved the right way
   and none the wrong way, the same otherwise. Any other metric is
   unresolved when either side's quartile spread (over the runs in its
   file) is wider than its bound; otherwise it is worse or better when the
   new median moved past the bound in that direction, and the same when
   not. A workload is also worse when its new runs failed more operations
   than its old ones. Exits 1 when anything is worse. *)

let num j k = Option.bind (Json.member k j) Json.to_num

(* Positive when [new_v] is worse than [old_v], as a share of [old_v]. *)
let worse_by (m : Spec.metric) ~old_v ~new_v =
  let d = if m.Spec.lower_is_better then new_v -. old_v else old_v -. new_v in
  if d = 0. then 0. else d /. Float.abs old_v

let by_median (m : Spec.metric) ~old_v ~new_v ~spread =
  let w = worse_by m ~old_v ~new_v in
  if spread > m.Spec.bound then "unresolved"
  else if w > m.Spec.bound then "worse"
  else if -.w > m.Spec.bound then "better"
  else "same"

(* (seed, value) of each run of a workload that reported [name]. *)
let per_seed wj name =
  let seeds = List.filter_map Json.to_num (Json.to_list (Option.value (Json.member "seeds" wj) ~default:(Json.Arr []))) in
  let values =
    match Option.bind (Json.member "metrics" wj) (Json.member name) with
    | Some m -> List.map Json.to_num (Json.to_list (Option.value (Json.member "values" m) ~default:(Json.Arr [])))
    | None -> []
  in
  if List.length seeds <> List.length values then []
  else List.filter_map (fun (s, v) -> Option.map (fun v -> (s, v)) v) (List.combine seeds values)

let by_seed m ~olds ~news =
  let ws =
    List.filter_map
      (fun (s, o) -> Option.map (fun n -> worse_by m ~old_v:o ~new_v:n) (List.assoc_opt s news))
      olds
  in
  if ws = [] then None
  else if List.exists (fun w -> w > 0.) ws then Some "worse"
  else if List.exists (fun w -> w < 0.) ws then Some "better"
  else Some "same"

let main old_f new_f =
  let spec = Spec.metrics "end_to_end" in
  let workloads f =
    match Json.member "workloads" (Json.of_file f) with Some (Json.Obj l) -> l | _ -> []
  in
  let olds = workloads old_f and news = workloads new_f in
  let worse = ref 0 in
  let row w name ~old_v ~new_v ~bound v =
    if v = "worse" then incr worse;
    Printf.printf "%-12s %-16s %14.6g %14.6g %+7.2f%% %6.1f%%  %s\n" w name old_v new_v
      (100. *. (new_v -. old_v) /. Float.abs old_v)
      (100. *. bound) v
  in
  Printf.printf "%-12s %-16s %14s %14s %8s %7s  %s\n" "workload" "metric" "old" "new" "change"
    "bound" "verdict";
  List.iter
    (fun (w, oj) ->
      match List.assoc_opt w news with
      | None -> Printf.printf "%-12s missing from %s\n" w new_f
      | Some nj ->
          let failed j = Option.value (num j "failed") ~default:0. in
          if failed nj > failed oj then
            row w "failed" ~old_v:(failed oj) ~new_v:(failed nj) ~bound:0. "worse";
          List.iter
            (fun (m : Spec.metric) ->
              let get j = Option.bind (Json.member "metrics" j) (Json.member m.Spec.name) in
              match (Option.bind (get oj) (fun j -> num j "value"), Option.bind (get nj) (fun j -> num j "value")) with
              | Some old_v, Some new_v ->
                  let seeded =
                    if List.mem m.Spec.name Suite.counts then
                      by_seed m ~olds:(per_seed oj m.Spec.name) ~news:(per_seed nj m.Spec.name)
                    else None
                  in
                  let v =
                    match seeded with
                    | Some v -> v
                    | None ->
                        let spread j = Option.value (Option.bind (get j) (fun j -> num j "spread")) ~default:0. in
                        by_median m ~old_v ~new_v ~spread:(Float.max (spread oj) (spread nj))
                  in
                  row w m.Spec.name ~old_v ~new_v ~bound:m.Spec.bound v
              | _ -> Printf.printf "%-12s %-16s missing\n" w m.Spec.name)
            spec)
    olds;
  if !worse > 0 then (
    Printf.printf "%d metric(s) worse\n" !worse;
    1)
  else 0
