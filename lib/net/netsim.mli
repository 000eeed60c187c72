(** Analytic network-time model (see DESIGN.md, "Netsim cost model").

    The lockstep simulation executes protocol logic in-process; wire time
    is reintroduced analytically from exact metered traffic:

    network time = rounds x RTT + bits / bandwidth

    with the paper's LAN / WAN / geo-distributed link parameters (§5.1,
    Appendix E). *)

type profile = {
  label : string;
  rtt_s : float;  (** round-trip time in seconds *)
  bandwidth_bps : float;  (** per-link bandwidth in bits/second *)
}

val lan : profile
(** 0.3 ms RTT, 25 Gbps (us-east-2, §5.1). *)

val wan : profile
(** 20 ms RTT, 6 Gbps. *)

val geo : profile
(** Worst link of the four-region deployment of Appendix E: a
    synchronous round completes when its slowest link does, so the
    effective profile of a link set is (max RTT, min bandwidth). *)

val local : profile
(** Zero-cost profile: isolates the simulation's own compute time. *)

val of_label : string -> profile option
(** "lan" | "wan" | "geo" | "local", trimmed and case-insensitive — the
    one parser behind every profile-valued flag and environment
    variable. *)

val network_time : profile -> Comm.tally -> float

val estimate : profile -> compute_s:float -> Comm.tally -> float
(** Measured compute plus modeled network time. *)
