(** The nine queries the paper collects from prior relational MPC systems
    (§5.1): Aspirin, C.Diff, Password, Credit, Comorbidity, SecQ2
    (Secrecy / Conclave / Senate), Market Share (Conclave), SYan (Secure
    Yannakakis Example 1.1), and Patients (the Shrinkwrap cascading-effect
    query, evaluated here with §3.6 multiplicity pre-aggregation). *)

type query = (Other_gen.mpc, Other_gen.plain) Query.t

val credit_delta : int

val all : query list

val find : string -> query
(** @raise Not_found for unknown names. *)
