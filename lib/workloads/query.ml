(** A hand-built workload query and its validation against the plaintext
    reference engine. *)

type ('db, 'plain) t = {
  name : string;
  run : 'db -> Orq_core.Table.t;
  reference : 'plain -> Orq_plaintext.Ptable.t;
  compare_cols : string list;
}

let run_plan plan db = fst (Orq_planner.Compile.run (plan db))

let find qs name = List.find (fun q -> q.name = name) qs

(* Aggregates of possibly negative values are two's complement at their
   column width, so both sides are masked to the MPC widths. *)
let validate q plain mdb =
  let result = q.run mdb in
  let widths = List.map (Orq_core.Table.width result) q.compare_cols in
  let mask_row row =
    List.map2 (fun v w -> v land Orq_util.Ring.mask w) row widths
  in
  let mpc_rows =
    List.map mask_row (Orq_core.Table.valid_rows_sorted result q.compare_cols)
  in
  let ref_rows =
    List.map mask_row
      (Orq_plaintext.Ptable.rows_sorted (q.reference plain) q.compare_cols)
  in
  (mpc_rows = ref_rows, mpc_rows, ref_rows)
