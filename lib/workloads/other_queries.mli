(** The nine queries the paper collects from prior relational MPC systems
    (§5.1): Aspirin, C.Diff, Password, Credit, Comorbidity, SecQ2
    (Secrecy / Conclave / Senate), Market Share (Conclave), SYan (Secure
    Yannakakis Example 1.1), and Patients (the Shrinkwrap cascading-effect
    query, evaluated here with §3.6 multiplicity pre-aggregation). All
    but C.Diff are logical plans that {!Orq_planner.Compile} runs. *)

type query = (Other_gen.mpc, Other_gen.plain) Query.t

val credit_delta : int

val all : query list

val plans : (string * (Other_gen.mpc -> Orq_planner.Plan.node)) list
(** The logical plan of every entry of {!all} but C.Diff, whose
    adjacent-row test no plan node expresses. *)

val find : string -> query
(** @raise Not_found for unknown names. *)
