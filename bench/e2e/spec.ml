(* BENCHMARK.json, read from the working directory (the repository root):
   the one list of the benchmark's metrics — names, units, directions and
   bounds — and the length of a run. *)

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float;  (** nan for per-layer metrics, which have none *)
}

let path = "BENCHMARK.json"
let spec = lazy (Json.of_file path)

let field k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: no %S" path k)

let str k j = match Json.to_str (field k j) with Some s -> s | None -> failwith (path ^ ": " ^ k)

let metrics section =
  List.map
    (fun m ->
      {
        name = str "name" m;
        unit_ = str "unit" m;
        lower_is_better = str "better" m = "lower";
        bound = Option.value (Option.bind (Json.member "bound" m) Json.to_num) ~default:nan;
      })
    (Json.to_list (field section (Lazy.force spec)))

(* The metrics a run reports: per-layer ones when traced, else end-to-end. *)
let reported ~trace = metrics (if trace then "per_layer" else "end_to_end")

let run_seconds () =
  match Json.to_num (field "run_seconds" (Lazy.force spec)) with
  | Some s -> s
  | None -> failwith (path ^ ": run_seconds")

(* A workload's measured (name, value) pairs as [section] lists them, with
   0 for a metric the workload does not measure. A measured name the
   section does not list is a benchmark bug. *)
let complete section (measured : (string * float) list) =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> m.name = name) section) then
        invalid_arg ("metric not in " ^ path ^ ": " ^ name))
    measured;
  List.map
    (fun m -> (m, Option.value (List.assoc_opt m.name measured) ~default:0.))
    section
