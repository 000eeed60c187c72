(** Analytic network-time model.

    The paper evaluates ORQ in three environments (§5.1, Appendix E):

    - LAN: 0.3 ms RTT, 25 Gbps;
    - WAN: 20 ms RTT, 6 Gbps (16 parallel connections);
    - geo-distributed: 50–61 ms RTT, 4.23–8.47 Gbps across four AWS regions.

    Our lockstep simulation executes protocol logic in-process, so the wire
    time is reintroduced analytically from the exact metered traffic:

      network time = rounds x RTT + bits / bandwidth

    which is the standard first-order model for synchronous MPC; the paper's
    own analysis (§5.2, §B.3) reasons in precisely these two terms. Estimated
    end-to-end time is compute time (measured) + network time (modeled). *)

type profile = {
  label : string;
  rtt_s : float;  (** round-trip time in seconds *)
  bandwidth_bps : float;  (** per-link bandwidth in bits/second *)
}

let lan = { label = "LAN"; rtt_s = 0.3e-3; bandwidth_bps = 25e9 }
let wan = { label = "WAN"; rtt_s = 20e-3; bandwidth_bps = 6e9 }

(** Worst link of the four-region deployment in Appendix E. *)
let geo = { label = "GEO"; rtt_s = 61e-3; bandwidth_bps = 4.23e9 }

(** Zero-cost profile: pure compute time (useful to isolate the simulation's
    own wall-clock from the modeled network). *)
let local = { label = "LOCAL"; rtt_s = 0.; bandwidth_bps = infinity }

let of_label s =
  match String.lowercase_ascii (String.trim s) with
  | "lan" -> Some lan
  | "wan" -> Some wan
  | "geo" -> Some geo
  | "local" -> Some local
  | _ -> None

let network_time p (tl : Comm.tally) =
  (float_of_int tl.t_rounds *. p.rtt_s)
  +. (float_of_int tl.t_bits /. p.bandwidth_bps)

(** [estimate p ~compute_s tally] combines measured compute with modeled
    network time. *)
let estimate p ~compute_s (tl : Comm.tally) = compute_s +. network_time p tl
