(* Real multi-party deployment (lib/party/): mesh wire protocol
   roundtrips and hostile-input rejection, handshake verification, the
   exchange layer's lockstep + divergence detection over a real
   socketpair, and a forked two-party cluster smoke test on Unix-domain
   sockets — results and measured wire traffic identical to the
   in-process simulation, hostile clients dropped without hurting the
   cluster. *)

open Orq_proto
module Wire = Orq_net.Wire
module Comm = Orq_net.Comm
module Transport = Orq_net.Transport
module Pwire = Orq_party.Pwire
module Exchange = Orq_party.Exchange
module Cluster = Orq_party.Cluster
module Client = Orq_service.Client

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Mesh wire protocol                                                  *)
(* ------------------------------------------------------------------ *)

let sample_hello =
  {
    Pwire.p_version = Pwire.version;
    p_party = 2;
    p_parties = 3;
    p_proto = "sh-hm";
    p_seed = 42;
    p_sf = 0.001;
    p_ell = 64;
  }

let sample_msgs =
  [
    Pwire.Hello_p sample_hello;
    Pwire.Reject_p "protocol mismatch: sh-dm vs sh-hm";
    Pwire.Query_c
      { q_qid = 7; q_sql = "SELECT 1 FROM nation"; q_max_rows = 100 };
    Pwire.Round_p
      {
        r_seq = 12;
        r_events = 3;
        r_bits = 4096;
        r_msgs = 6;
        r_payload = String.init 171 (fun i -> Char.chr (i mod 256));
      };
    Pwire.Fence_p
      {
        f_qid = 7;
        f_party = 1;
        f_rounds = 110;
        f_bits = 25_288_779;
        f_msgs = 510;
        f_digest = 0x1234_5678_9abc;
        f_exchanges = 149;
        f_sent_bits = 8_429_593;
        f_sent_msgs = 170;
        f_payload_bytes = 1_053_700;
        f_frames = 149;
      };
    Pwire.Bye_p;
  ]

let test_pwire_roundtrip () =
  List.iter
    (fun m ->
      let m' = Pwire.decode (Pwire.encode m) in
      Alcotest.(check string)
        (Pwire.msg_label m) (Pwire.msg_label m) (Pwire.msg_label m');
      Alcotest.(check bool) "roundtrip" true (m = m'))
    sample_msgs

(* Any frame whose body does not open with the 4-byte mesh magic is
   rejected — stray service clients and garbage look the same here. *)
let test_pwire_bad_magic () =
  let hostile =
    [
      Bytes.of_string "XXXX\x01rest";
      (* a service-protocol frame body: right framing, wrong protocol *)
      Wire.encode_request Wire.Ping;
      Bytes.of_string "OR";
      Bytes.empty;
    ]
  in
  List.iter
    (fun body ->
      match Pwire.decode body with
      | _ -> Alcotest.fail "hostile frame body must not decode"
      | exception Pwire.Party_error _ -> ())
    hostile

let test_pwire_unknown_tag () =
  let body = Bytes.of_string (Pwire.magic ^ "\xee") in
  match Pwire.decode body with
  | _ -> Alcotest.fail "unknown tag must not decode"
  | exception Pwire.Party_error _ -> ()

let test_pwire_truncated_body () =
  (* take a valid encoded Fence_p and chop it mid-field *)
  let full = Pwire.encode (List.nth sample_msgs 4) in
  let cut = Bytes.sub full 0 (Bytes.length full - 7) in
  match Pwire.decode cut with
  | _ -> Alcotest.fail "truncated body must not decode"
  | exception (Pwire.Party_error _ | Wire.Wire_error _) -> ()

(* The length-prefix attacks from the service tests, replayed against
   the mesh receiver: a hostile prefix larger than max_frame must be
   rejected before any allocation; a mid-frame disconnect must raise,
   not return a short frame. *)
let test_pwire_oversized_prefix () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  assert (Unix.write a (Bytes.of_string "\xff\xff\xff\xff") 0 4 = 4);
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  match Pwire.recv b with
  | _ -> Alcotest.fail "oversized length prefix must raise"
  | exception Wire.Wire_error _ -> ()

let test_pwire_midframe_disconnect () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  (* header promises 100 bytes, the peer dies after 10 *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 100l;
  assert (Unix.write a hdr 0 4 = 4);
  assert (Unix.write a (Bytes.make 10 'x') 0 10 = 10);
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  match Pwire.recv b with
  | _ -> Alcotest.fail "mid-frame disconnect must raise"
  | exception Wire.Wire_error _ -> ()

let test_pwire_partial_header_disconnect () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  assert (Unix.write a (Bytes.of_string "\x00\x00") 0 2 = 2);
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  match Pwire.recv b with
  | _ -> Alcotest.fail "partial header must raise"
  | exception Wire.Wire_error _ -> ()

let test_pwire_clean_eof () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  Alcotest.(check bool) "EOF at a frame boundary" true (Pwire.recv b = None)

(* ------------------------------------------------------------------ *)
(* Payload split                                                       *)
(* ------------------------------------------------------------------ *)

let test_share_of () =
  List.iter
    (fun (total, parties) ->
      let shares =
        List.init parties (fun party ->
            Exchange.share_of ~party ~parties total)
      in
      Alcotest.(check int)
        (Printf.sprintf "sum %d/%d" total parties)
        total
        (List.fold_left ( + ) 0 shares);
      let mx = List.fold_left max 0 shares
      and mn = List.fold_left min max_int shares in
      Alcotest.(check bool) "balanced" true (mx - mn <= 1))
    [ (0, 2); (1, 3); (7, 2); (25_288_779, 3); (63, 4); (64, 4); (65, 4) ]

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

let hello_for ?(version = Pwire.version) ?(seed = 42) ?(sf = 0.001)
    ?(parties = 3) ?(proto = "sh-hm") ?(ell = 64) party =
  {
    Pwire.p_version = version;
    p_party = party;
    p_parties = parties;
    p_proto = proto;
    p_seed = seed;
    p_sf = sf;
    p_ell = ell;
  }

let test_verify_hello () =
  let mine = hello_for 0 in
  let ok theirs = Cluster.verify_hello ~mine ~theirs in
  Alcotest.(check bool) "peer id may differ" true (ok (hello_for 2) = Ok ());
  let rejects label theirs =
    match ok theirs with
    | Ok () -> Alcotest.fail (label ^ ": mismatch must be rejected")
    | Error _ -> ()
  in
  rejects "version" (hello_for ~version:(Pwire.version + 1) 2);
  rejects "parties" (hello_for ~parties:4 2);
  rejects "proto" (hello_for ~proto:"mal-hm" 2);
  rejects "seed" (hello_for ~seed:43 2);
  rejects "sf" (hello_for ~sf:0.01 2);
  rejects "ell" (hello_for ~ell:32 2);
  rejects "same party id" (hello_for 0)

(* Run the two handshake halves over a socketpair, the dialer in a
   thread, exactly as the mesh does it. *)
let handshake_pair ~acceptor ~dialer ~expect =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  let dial_r = ref (Error "did not run") in
  let th =
    Thread.create
      (fun () -> dial_r := Cluster.dial_handshake ~mine:dialer ~expect b)
      ()
  in
  let acc_r = Cluster.accept_handshake ~mine:acceptor a in
  Thread.join th;
  (acc_r, !dial_r)

let test_handshake_ok () =
  (* party 1 dials party 0: both sides succeed and learn the peer id *)
  let acc, dial =
    handshake_pair ~acceptor:(hello_for 0) ~dialer:(hello_for 1) ~expect:0
  in
  Alcotest.(check bool) "acceptor learns id" true (acc = Ok 1);
  Alcotest.(check bool) "dialer verified" true (dial = Ok ())

let test_handshake_rejects_mismatch () =
  (* a dialer from a different session (wrong seed) is refused with a
     reasoned Reject_p, and sees that reason *)
  let acc, dial =
    handshake_pair ~acceptor:(hello_for 0)
      ~dialer:(hello_for ~seed:1337 1)
      ~expect:0
  in
  (match acc with
  | Ok _ -> Alcotest.fail "acceptor must refuse a wrong-seed dialer"
  | Error reason ->
      Alcotest.(check bool)
        "reason names the seed" true
        (contains (String.lowercase_ascii reason) "seed"));
  match dial with
  | Ok () -> Alcotest.fail "dialer must see the rejection"
  | Error _ -> ()

let test_handshake_rejects_version () =
  let acc, dial =
    handshake_pair ~acceptor:(hello_for 0)
      ~dialer:(hello_for ~version:(Pwire.version + 9) 1)
      ~expect:0
  in
  Alcotest.(check bool) "acceptor refuses" true (Result.is_error acc);
  Alcotest.(check bool) "dialer refused" true (dial <> Ok ())

let test_handshake_rejects_wrong_direction () =
  (* lower ids accept, higher ids dial: party 0 dialing party 1 is a
     topology violation *)
  let acc, _ =
    handshake_pair ~acceptor:(hello_for 1) ~dialer:(hello_for 0) ~expect:1
  in
  Alcotest.(check bool) "direction enforced" true (Result.is_error acc)

let test_handshake_rejects_garbage () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* a service-protocol client that wandered onto a mesh port: correct
     framing, wrong protocol entirely *)
  Wire.write_frame b
    (Wire.encode_request
       (Wire.Hello
          {
            h_version = Wire.protocol_version;
            h_proto = "sh-hm";
            h_client = "lost";
          }));
  match Cluster.accept_handshake ~mine:(hello_for 0) a with
  | Ok _ -> Alcotest.fail "service hello must not pass the mesh handshake"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Exchange layer over a real socketpair                               *)
(* ------------------------------------------------------------------ *)

(* Both parties of a 2-party mesh run the identical metering sequence in
   parallel; the channel hooks must produce matching exchanges and the
   fence must agree — with physical exchanges = metered rounds
   and per-party payload shares summing to the metered bits exactly. *)
let drive_exchange e ~digest ~bits0 =
  Exchange.reset_query e;
  let ch = Exchange.channel e in
  ch.Comm.ch_round ~bits:bits0 ~messages:2;
  ch.Comm.ch_traffic ~bits:72 ~messages:1;
  ch.Comm.ch_barrier 2;
  ch.Comm.ch_round ~bits:8 ~messages:1;
  let tally =
    { Comm.t_rounds = 4; t_bits = bits0 + 80; t_messages = 4 }
  in
  Exchange.fence e ~qid:3 ~tally ~digest

let with_two_party_mesh f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let e0 = Exchange.create ~party:0 ~parties:2 [ (1, a) ] in
  let e1 = Exchange.create ~party:1 ~parties:2 [ (0, b) ] in
  Fun.protect ~finally:(fun () ->
      (* both meshes live in this process: shutdown delivers EOF to the
         receiver threads (a bare close would not wake them) *)
      (try Unix.shutdown a Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.shutdown b Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Exchange.close e0;
      Exchange.close e1)
  @@ fun () -> f e0 e1

let test_exchange_lockstep () =
  with_two_party_mesh @@ fun e0 e1 ->
  let r1 = ref (Error "did not run") in
  let th =
    Thread.create
      (fun () ->
        r1 :=
          try Ok (drive_exchange e1 ~digest:0xfeed ~bits0:128)
          with e -> Error (Printexc.to_string e))
      ()
  in
  let fences0 = drive_exchange e0 ~digest:0xfeed ~bits0:128 in
  Thread.join th;
  let fences1 =
    match !r1 with Ok f -> f | Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "fences per party" 2 (Array.length fences0);
  Array.iteri
    (fun p f ->
      Alcotest.(check int) "party" p f.Pwire.f_party;
      Alcotest.(check int) "metered rounds" 4 f.Pwire.f_rounds;
      Alcotest.(check int) "metered bits" 208 f.Pwire.f_bits;
      Alcotest.(check int) "metered msgs" 4 f.Pwire.f_msgs;
      (* 2 payload rounds + 2 barrier exchanges *)
      Alcotest.(check int) "physical exchanges" 4 f.Pwire.f_exchanges;
      Alcotest.(check int) "exchanges = rounds" f.Pwire.f_rounds
        f.Pwire.f_exchanges)
    fences0;
  (* both parties collected the same fences *)
  Alcotest.(check bool) "fences agree" true (fences0 = fences1);
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 fences0 in
  Alcotest.(check int)
    "payload shares sum to metered bits" 208
    (sum (fun f -> f.Pwire.f_sent_bits));
  Alcotest.(check int)
    "message shares sum to metered messages" 4
    (sum (fun f -> f.Pwire.f_sent_msgs))

(* The first round whose metered totals differ across parties kills the
   query on both sides — divergence cannot survive until the fence. *)
let test_exchange_detects_divergence () =
  with_two_party_mesh @@ fun e0 e1 ->
  let failed = ref 0 in
  let m = Mutex.create () in
  let run e bits0 =
    (try ignore (drive_exchange e ~digest:0xfeed ~bits0)
     with Pwire.Party_error _ ->
       Mutex.lock m;
       incr failed;
       Mutex.unlock m);
    ()
  in
  let th = Thread.create (fun () -> run e1 64) () in
  run e0 128;
  Thread.join th;
  Alcotest.(check int) "both parties abort" 2 !failed

let test_exchange_detects_digest_divergence () =
  with_two_party_mesh @@ fun e0 e1 ->
  let failed = ref 0 in
  let m = Mutex.create () in
  let run e digest =
    (try ignore (drive_exchange e ~digest ~bits0:128)
     with Pwire.Party_error _ ->
       Mutex.lock m;
       incr failed;
       Mutex.unlock m);
    ()
  in
  let th = Thread.create (fun () -> run e1 0xbeef) () in
  run e0 0xfeed;
  Thread.join th;
  Alcotest.(check int) "divergent results abort the fence" 2 !failed

(* ------------------------------------------------------------------ *)
(* Forked local cluster (Unix-domain sockets)                          *)
(* ------------------------------------------------------------------ *)

let nation_sql = "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey"

let query_ok c sql =
  match Client.query c sql with
  | Ok r -> r
  | Error (_, msg) -> Alcotest.fail ("cluster query failed: " ^ msg)

(* One forked 2-party cluster exercises the whole stack: handshake,
   mesh, coordinator, and the service front end — results identical to
   the in-process simulation, measured wire equal to the meter, hostile
   clients dropped without disturbing the parties. *)
let test_cluster_smoke () =
  let l = Cluster.launch_local ~tcp:false ~seed:42 ~sf:0.001 Ctx.Sh_dm in
  Fun.protect ~finally:(fun () -> Cluster.shutdown_local l) @@ fun () ->
  let addr = Transport.format_addr l.Cluster.l_client in
  (* sessions are served one at a time: run the whole first session and
     close it before probing with hostile clients *)
  let r =
    let c = Client.connect ~timeout_ms:120_000 ~retry_ms:15_000 addr in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (* the cluster serves exactly one protocol: the other labels are
       refused with a reason, the right one is accepted *)
    (match Client.set_protocol c "sh-hm" with
    | Ok _ -> Alcotest.fail "a sh-dm cluster must refuse sh-hm sessions"
    | Error _ -> ());
    (match Client.set_protocol c "sh-dm" with
    | Ok label -> Alcotest.(check string) "canonical label" "SH-DM" label
    | Error msg ->
        Alcotest.fail ("cluster refused its own protocol: " ^ msg));
    let r = query_ok c nation_sql in
  (* byte-identical to the in-process simulation on the same seed *)
  let reference =
    let ctx = Ctx.create ~seed:42 Ctx.Sh_dm in
    let db =
      Orq_workloads.Tpch_gen.share ctx
        (Orq_workloads.Tpch_gen.generate ~seed:42 0.001)
    in
    let qseed =
      Orq_service.Service.query_seed_for ~seed:42
        ~proto_label:(Ctx.kind_label Ctx.Sh_dm) ~sql:nation_sql
    in
    Orq_service.Service.execute_sql ~ctx ~db ~qseed ~max_rows:10_000
      nation_sql
  in
  (match reference with
  | Wire.Result re ->
      Alcotest.(check bool) "identical to simulation" true (r = re)
  | _ -> Alcotest.fail "reference execution failed");
  (* the measured wire equals the meter *)
    (match Client.net_stats c with
    | Error msg -> Alcotest.fail ("net_stats: " ^ msg)
    | Ok s ->
        Alcotest.(check int) "parties" 2 s.Wire.n_parties;
        Alcotest.(check int) "bits" r.Wire.r_tally.Comm.t_bits s.Wire.n_bits;
        Alcotest.(check int)
          "messages" r.Wire.r_tally.Comm.t_messages s.Wire.n_messages;
        Alcotest.(check int)
          "exchanges = rounds" r.Wire.r_tally.Comm.t_rounds s.Wire.n_exchanges;
        Alcotest.(check int) "no refunds" 0 s.Wire.n_refunds);
    r
  in
  (* a hostile client: garbage bytes, then a mid-frame disconnect — the
     session dies, the cluster does not *)
  let hostile = Transport.connect (Result.get_ok (Transport.parse_addr addr)) in
  assert (Unix.write hostile (Bytes.of_string "\xde\xad\xbe\xef") 0 4 = 4);
  Unix.close hostile;
  let hostile2 = Transport.connect (Result.get_ok (Transport.parse_addr addr)) in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 64l;
  assert (Unix.write hostile2 hdr 0 4 = 4);
  assert (Unix.write hostile2 (Bytes.make 3 'z') 0 3 = 3);
  Unix.close hostile2;
  (* a version-mismatched Hello gets a reasoned refusal, not a hang *)
  let old = Transport.connect (Result.get_ok (Transport.parse_addr addr)) in
  Wire.write_frame old
    (Wire.encode_request
       (Wire.Hello
          { h_version = 999; h_proto = "sh-dm"; h_client = "relic" }));
  (match Wire.read_frame old with
  | Some body -> (
      match Wire.decode_response body with
      | Wire.Error_r { code = Wire.Bad_request; msg } ->
          Alcotest.(check bool)
            "refusal names the versions" true
            (contains msg "version")
      | _ -> Alcotest.fail "version mismatch must be a Bad_request")
  | None -> Alcotest.fail "version mismatch must be answered");
  Unix.close old;
  (* the cluster survived all three and still answers new sessions *)
  let c2 = Client.connect ~timeout_ms:120_000 addr in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  (match Client.set_protocol c2 "sh-dm" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("post-hostile session refused: " ^ msg));
  let r2 = query_ok c2 nation_sql in
  Alcotest.(check bool)
    "replay identical" true
    (r2.Wire.r_rows = r.Wire.r_rows
    && r2.Wire.r_cols = r.Wire.r_cols
    && r2.Wire.r_tally = r.Wire.r_tally)

(* A sorted SH-HM query across three real processes: the 56-bit ORDER BY
   key sorts by quicksort, whose comparison bits open in their last AND
   round, and the elementwise applications and the reveal open in their
   shuffles' last round. Results equal the in-process simulation and the
   measured wire equals the meter, fused rounds included. *)
let sorted_sql =
  "SELECT c_custkey, c_acctbal * c_acctbal AS sq FROM customer ORDER BY sq \
   DESC LIMIT 3"

let test_cluster_sh_hm_sorted () =
  let reference, transcript =
    let ctx = Ctx.create ~seed:42 Ctx.Sh_hm in
    let db =
      Orq_workloads.Tpch_gen.share ctx
        (Orq_workloads.Tpch_gen.generate ~seed:42 0.001)
    in
    let qseed =
      Orq_service.Service.query_seed_for ~seed:42
        ~proto_label:(Ctx.kind_label Ctx.Sh_hm) ~sql:sorted_sql
    in
    Comm.start_recording ctx.Ctx.comm;
    let r =
      Orq_service.Service.execute_sql ~ctx ~db ~qseed ~max_rows:10_000
        sorted_sql
    in
    (r, Comm.transcript ctx.Ctx.comm)
  in
  (* the plan reaches both fused openings: a shuffle round of 8 messages
     and a 6-message comparison round under the quicksort label *)
  let has p = Array.exists p transcript in
  Alcotest.(check bool) "opening shuffle round" true
    (has (fun (e : Comm.event) -> e.ev_op = Comm.Round && e.ev_messages = 8));
  Alcotest.(check bool) "opening comparison round" true
    (has (fun (e : Comm.event) ->
         e.ev_op = Comm.Round && e.ev_messages = 6
         && Filename.basename e.ev_label = "quicksort"));
  let l = Cluster.launch_local ~tcp:false ~seed:42 ~sf:0.001 Ctx.Sh_hm in
  Fun.protect ~finally:(fun () -> Cluster.shutdown_local l) @@ fun () ->
  let c =
    Client.connect ~timeout_ms:120_000 ~retry_ms:15_000
      (Transport.format_addr l.Cluster.l_client)
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.set_protocol c "sh-hm" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("cluster refused its own protocol: " ^ msg));
  let r = query_ok c sorted_sql in
  (match reference with
  | Wire.Result re ->
      Alcotest.(check bool) "identical to simulation" true (r = re)
  | _ -> Alcotest.fail "reference execution failed");
  match Client.net_stats c with
  | Error msg -> Alcotest.fail ("net_stats: " ^ msg)
  | Ok s ->
      Alcotest.(check int) "parties" 3 s.Wire.n_parties;
      Alcotest.(check int) "bits" r.Wire.r_tally.Comm.t_bits s.Wire.n_bits;
      Alcotest.(check int)
        "messages" r.Wire.r_tally.Comm.t_messages s.Wire.n_messages;
      Alcotest.(check int)
        "exchanges = rounds" r.Wire.r_tally.Comm.t_rounds s.Wire.n_exchanges

let () =
  Alcotest.run "party"
    [
      ( "pwire",
        [
          Alcotest.test_case "roundtrip" `Quick test_pwire_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_pwire_bad_magic;
          Alcotest.test_case "unknown tag" `Quick test_pwire_unknown_tag;
          Alcotest.test_case "truncated body" `Quick test_pwire_truncated_body;
          Alcotest.test_case "oversized prefix" `Quick
            test_pwire_oversized_prefix;
          Alcotest.test_case "mid-frame disconnect" `Quick
            test_pwire_midframe_disconnect;
          Alcotest.test_case "partial header" `Quick
            test_pwire_partial_header_disconnect;
          Alcotest.test_case "clean EOF" `Quick test_pwire_clean_eof;
        ] );
      ( "share",
        [ Alcotest.test_case "share_of" `Quick test_share_of ] );
      ( "handshake",
        [
          Alcotest.test_case "verify_hello" `Quick test_verify_hello;
          Alcotest.test_case "ok" `Quick test_handshake_ok;
          Alcotest.test_case "seed mismatch" `Quick
            test_handshake_rejects_mismatch;
          Alcotest.test_case "version mismatch" `Quick
            test_handshake_rejects_version;
          Alcotest.test_case "wrong direction" `Quick
            test_handshake_rejects_wrong_direction;
          Alcotest.test_case "garbage" `Quick test_handshake_rejects_garbage;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "lockstep" `Quick test_exchange_lockstep;
          Alcotest.test_case "metered divergence" `Quick
            test_exchange_detects_divergence;
          Alcotest.test_case "digest divergence" `Quick
            test_exchange_detects_digest_divergence;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "2-party smoke" `Slow test_cluster_smoke;
          Alcotest.test_case "3-party sorted SH-HM query" `Slow
            test_cluster_sh_hm_sorted;
        ] );
    ]
