(* Round-count regression tests for the cross-lane fusion layer.

   The analytic depth formulas (in units of one interactive round, which
   the probe below re-derives per protocol):

     eq  over w bits          ceil(log2 w)            (bor halving ladder)
     lt  over w bits          ceil(log2 w) + 1        (initial AND + ladder)
     add (private operands)   ceil(log2 (w-1)) + 1    (generate AND + prefix
                              (0 when w = 1)           over the w - 1 carries)
     add_pub                  ceil(log2 (w-1))        (generate is local)
     a2b                      ceil(log2 (w-1)) + 1    (one opening + add_pub)

   and every [_many] entry point must cost the MAX lane depth, not the
   sum — that is the whole point of the fusion layer. A k-lane call must
   give the values, bits and messages of k one-lane calls, changing
   rounds only; a zero-lane call returns nothing and charges nothing. *)

open Orq_util
open Orq_proto
open Orq_circuits
module Comm = Orq_net.Comm

let kinds = Ctx.all_kinds

let rounds_of (ctx : Ctx.t) f =
  let before = Comm.snapshot ctx.Ctx.comm in
  let r = f () in
  (r, (Comm.since ctx.Ctx.comm before).Comm.t_rounds)

let share2 ctx ~w n seed =
  let x = Array.init n (fun i -> (i * 2654435761) lxor seed) in
  Mpc.share_b ctx (Array.map (fun v -> v land Ring.mask w) x)

(* One band must cost exactly one round under every protocol — the unit
   all formulas below are stated in. *)
let test_round_unit () =
  List.iter
    (fun k ->
      let ctx = Ctx.create ~seed:1 k in
      let x = share2 ctx ~w:8 5 3 and y = share2 ctx ~w:8 5 7 in
      let _, r = rounds_of ctx (fun () -> Mpc.band ctx x y) in
      Alcotest.(check int) (Ctx.kind_label k ^ " band round unit") 1 r)
    kinds

let test_single_formulas () =
  List.iter
    (fun k ->
      let lbl = Ctx.kind_label k in
      let ctx = Ctx.create ~seed:2 k in
      List.iter
        (fun w ->
          let d = Ring.log2_ceil w in
          (* the adders' prefix runs over the w - 1 carry positions *)
          let dc = Ring.log2_ceil (w - 1) in
          let x = share2 ctx ~w 9 1 and y = share2 ctx ~w 9 2 in
          let _, req = rounds_of ctx (fun () -> Compare.eq ctx ~w x y) in
          Alcotest.(check int)
            (Printf.sprintf "%s eq w=%d" lbl w)
            d req;
          let _, rlt = rounds_of ctx (fun () -> Compare.lt ctx ~w x y) in
          Alcotest.(check int)
            (Printf.sprintf "%s lt w=%d" lbl w)
            (d + 1) rlt;
          let _, radd = rounds_of ctx (fun () -> Adder.add ctx ~w x y) in
          Alcotest.(check int)
            (Printf.sprintf "%s add w=%d" lbl w)
            (if w = 1 then 0 else dc + 1)
            radd;
          let _, rap =
            rounds_of ctx (fun () ->
                Adder.sub_pub_minuend_many ctx [| (Vec.zeros 9, x, w) |])
          in
          Alcotest.(check int)
            (Printf.sprintf "%s add_pub (0 - x) w=%d" lbl w)
            dc rap;
          let xa = Mpc.share_a ctx (Array.init 9 (fun i -> i)) in
          let _, ra2b = rounds_of ctx (fun () -> Convert.a2b ~w ctx xa) in
          Alcotest.(check int)
            (Printf.sprintf "%s a2b w=%d" lbl w)
            (dc + 1) ra2b)
        [ 1; 2; 8; 19; 32 ])
    kinds

(* Batched entry points: rounds equal the deepest lane, for any lane mix. *)
let test_many_max_depth () =
  List.iter
    (fun k ->
      let lbl = Ctx.kind_label k in
      let ctx = Ctx.create ~seed:3 k in
      let lanes ws = Array.map (fun w -> (share2 ctx ~w 7 1, share2 ctx ~w 7 2, w)) ws in
      let deepest ws = Array.fold_left (fun a w -> max a (Ring.log2_ceil w)) 0 ws in
      let carries ws = Array.map (fun w -> w - 1) ws in
      let ws = [| 32; 8; 1; 19 |] in
      let _, req = rounds_of ctx (fun () -> Compare.eq_many ctx (lanes ws)) in
      Alcotest.(check int) (lbl ^ " eq_many") (deepest ws) req;
      let _, rlt = rounds_of ctx (fun () -> Compare.lt_many ctx (lanes ws)) in
      Alcotest.(check int) (lbl ^ " lt_many") (deepest ws + 1) rlt;
      let _, radd = rounds_of ctx (fun () -> Adder.add_many ctx (lanes ws)) in
      Alcotest.(check int) (lbl ^ " add_many") (deepest (carries ws) + 1) radd;
      let bits = Array.init 4 (fun i -> Share.pack_flags (share2 ctx ~w:1 7 i)) in
      let _, rsel =
        rounds_of ctx (fun () ->
            Mux.select_many ctx
              (Array.map (fun b -> (b, share2 ctx ~w:8 7 3, share2 ctx ~w:8 7 4)) bits))
      in
      Alcotest.(check int) (lbl ^ " select_many") 1 rsel;
      let _, rb2a = rounds_of ctx (fun () -> Convert.bit_b2a_many ctx bits) in
      Alcotest.(check int) (lbl ^ " bit_b2a_many") 1 rb2a;
      let alanes =
        Array.map (fun w -> (Mpc.share_a ctx (Array.init 7 (fun i -> i)), w)) ws
      in
      let _, ra2b = rounds_of ctx (fun () -> Convert.a2b_many ctx alanes) in
      Alcotest.(check int) (lbl ^ " a2b_many") (deepest (carries ws) + 1) ra2b;
      (* composite-equality groups reduce in lockstep: ladder depth plus a
         log-depth AND tree over the widest group *)
      let groups =
        [|
          [ (share2 ctx ~w:16 7 1, share2 ctx ~w:16 7 2, 16);
            (share2 ctx ~w:4 7 3, share2 ctx ~w:4 7 4, 4);
            (share2 ctx ~w:1 7 5, share2 ctx ~w:1 7 6, 1) ];
          [ (share2 ctx ~w:8 7 7, share2 ctx ~w:8 7 8, 8) ];
        |]
      in
      let _, rcomp =
        rounds_of ctx (fun () -> Compare.eq_composite_many ctx groups)
      in
      Alcotest.(check int) (lbl ^ " eq_composite_many")
        (Ring.log2_ceil 16 + Ring.log2_ceil 3)
        rcomp)
    kinds

(* Fusing must only merge rounds: each batched circuit gives the values,
   bits and messages of its per-lane single calls, and charges the deepest
   lane's rounds where the single calls charge the sum. *)
let test_fused_equals_unfused () =
  List.iter
    (fun k ->
      let lbl = Ctx.kind_label k in
      let ws = [| 24; 6; 13 |] in
      let setup () =
        let ctx = Ctx.create ~seed:17 k in
        let lanes =
          Array.map (fun w -> (share2 ctx ~w 11 1, share2 ctx ~w 11 2, w)) ws
        in
        (ctx, lanes)
      in
      (* each stage: name, batched call, per-lane single call; flag
         results unpack to 0/1 words so every stage compares alike *)
      let words = Array.map Share.unpack_flags in
      let stages eqs lts =
        [
          ( "eq",
            (fun ctx lanes -> words (Compare.eq_many ctx lanes)),
            fun ctx (x, y, w) _ -> Share.unpack_flags (Compare.eq ctx ~w x y) );
          ( "lt",
            (fun ctx lanes -> words (Compare.lt_many ctx lanes)),
            fun ctx (x, y, w) _ -> Share.unpack_flags (Compare.lt ctx ~w x y) );
          ( "add",
            (fun ctx lanes -> Adder.add_many ctx lanes),
            fun ctx (x, y, w) _ -> Adder.add ctx ~w x y );
          ( "select",
            (fun ctx lanes ->
              Mux.select_many ctx
                (Array.map2 (fun b (x, y, _) -> (Share.pack_flags b, x, y)) !eqs lanes)),
            fun ctx (x, y, _) i -> Mux.mux_b ctx (Share.pack_flags !eqs.(i)) x y );
          ( "bit_b2a",
            (fun ctx _ ->
              Convert.bit_b2a_many ctx (Array.map Share.pack_flags !lts)),
            fun ctx _ i -> Convert.bit_b2a ctx (Share.pack_flags !lts.(i)) );
        ]
      in
      let run_all batched =
        let ctx, lanes = setup () in
        let eqs = ref [||] and lts = ref [||] in
        List.map
          (fun (name, many, one) ->
            let before = Comm.snapshot ctx.Ctx.comm in
            let out, depths =
              if batched then (many ctx lanes, [||])
              else
                let per_lane =
                  Array.mapi (fun i l -> rounds_of ctx (fun () -> one ctx l i)) lanes
                in
                (Array.map fst per_lane, Array.map snd per_lane)
            in
            if name = "eq" then eqs := out;
            if name = "lt" then lts := out;
            (name, Array.map Share.reconstruct out, depths,
             Comm.since ctx.Ctx.comm before))
          (stages eqs lts)
      in
      List.iter2
        (fun (name, vf, _, tf) (_, vu, depths, tu) ->
          let l = Printf.sprintf "%s %s" lbl name in
          Array.iteri
            (fun i a -> Alcotest.(check (array int)) (l ^ " value") vu.(i) a)
            vf;
          Alcotest.(check int) (l ^ " bits") tu.Comm.t_bits tf.Comm.t_bits;
          Alcotest.(check int) (l ^ " messages") tu.Comm.t_messages
            tf.Comm.t_messages;
          Alcotest.(check int) (l ^ " single calls pay the sum")
            (Array.fold_left ( + ) 0 depths) tu.Comm.t_rounds;
          Alcotest.(check int) (l ^ " batched pays the max lane depth")
            (Array.fold_left max 0 depths) tf.Comm.t_rounds)
        (run_all true) (run_all false))
    kinds

(* A channel that counts physical exchanges as the party layer makes
   them (one per round, one per barrier round) and logs the label current
   at each hook. *)
let counting_channel comm =
  let exchanges = ref 0 and log = ref [] in
  let note op = log := (op, Comm.current_label comm) :: !log in
  ( exchanges,
    log,
    {
      Comm.ch_round =
        (fun ~bits:_ ~messages:_ ->
          incr exchanges;
          note Comm.Round);
      ch_traffic = (fun ~bits:_ ~messages:_ -> note Comm.Traffic);
      ch_barrier =
        (fun k ->
          exchanges := !exchanges + k;
          note Comm.Barrier);
      ch_refund = (fun _ -> Alcotest.fail "retired ch_refund was called");
    } )

(* The parallel-track combinator charges the deepest track, where running
   the same thunks in sequence charges the sum; traffic and values are
   those of the sequential run. The merge is physical: an attached channel
   exchanges exactly the charged rounds, with every hook running under its
   event's label, and every payload event keeps its track's label. Each
   case gives its fused and sequential round counts, the fused barrier
   events' round counts (consecutive payload-free rounds coalesce), and
   builds its tracks from the combinator under test, so a nested fuse
   nests that one. *)
let test_fuse_rounds_combinator () =
  let two_round ctx x y () = Mpc.band ctx (Mpc.band ctx x y) y in
  let one_round ctx x y () = Mpc.band ctx x y in
  let cases =
    [
      ( "two tracks",
        2,
        3,
        [],
        fun ctx _ x y -> [| two_round ctx x y; one_round ctx x y |] );
      ( "nested fuse",
        3,
        5,
        [],
        fun ctx combine x y ->
          [|
            (fun () ->
              let r = combine ctx [| two_round ctx x y; one_round ctx x y |] in
              Mpc.band ctx r.(0) r.(1));
            one_round ctx x y;
          |] );
      ( "barrier rounds",
        4,
        5,
        [ 2 ],
        fun ctx _ x y ->
          [|
            (fun () ->
              Comm.rounds_only ctx.Ctx.comm 3;
              Mpc.band ctx x y);
            one_round ctx x y;
          |] );
      ( "leading traffic",
        2,
        3,
        [],
        fun ctx _ x y ->
          [|
            (fun () ->
              Comm.traffic ctx.Ctx.comm ~bits:64 ~messages:1;
              Mpc.band ctx x y);
            two_round ctx x y;
          |] );
    ]
  in
  List.iter
    (fun k ->
      List.iter
        (fun (name, fused, summed, barriers, tracks) ->
          let lbl = Ctx.kind_label k ^ " " ^ name in
          let run combine =
            let ctx = Ctx.create ~seed:23 k in
            let comm = ctx.Ctx.comm in
            let x = share2 ctx ~w:8 9 1 and y = share2 ctx ~w:8 9 2 in
            Comm.start_recording comm;
            let exchanges, log, ch = counting_channel comm in
            let labelled =
              Array.mapi
                (fun i f () -> Ctx.with_label ctx (Printf.sprintf "t%d" i) f)
                (tracks ctx combine x y)
            in
            let before = Comm.snapshot comm in
            let res =
              Channel.with_channel ctx ch (fun () -> combine ctx labelled)
            in
            Alcotest.(check int) (lbl ^ " no open track") 0
              (List.length comm.Comm.tracks);
            ( Array.map Share.reconstruct res,
              Comm.since comm before,
              !exchanges,
              List.rev !log,
              Array.to_list (Comm.transcript comm) )
          in
          let vf, tf, xf, logf, trf = run Mpc.fuse_rounds in
          let vs, ts, _, _, trs =
            run (fun _ thunks -> Array.map (fun f -> f ()) thunks)
          in
          Alcotest.(check int) (lbl ^ " tracks fused to max") fused
            tf.Comm.t_rounds;
          Alcotest.(check int) (lbl ^ " tracks in sequence sum") summed
            ts.Comm.t_rounds;
          Alcotest.(check int) (lbl ^ " channel exchanges = rounds")
            tf.Comm.t_rounds xf;
          Alcotest.(check int) (lbl ^ " track bits") ts.Comm.t_bits
            tf.Comm.t_bits;
          Alcotest.(check int) (lbl ^ " track messages") ts.Comm.t_messages
            tf.Comm.t_messages;
          Alcotest.(check (list int)) (lbl ^ " fused barriers") barriers
            (List.filter_map
               (fun e ->
                 if e.Comm.ev_op = Comm.Barrier then Some e.Comm.ev_rounds
                 else None)
               trf);
          Alcotest.(check bool) (lbl ^ " hooks run under their event's label")
            true
            (logf = List.map (fun e -> (e.Comm.ev_op, e.Comm.ev_label)) trf);
          let payload tr =
            List.sort compare
              (List.filter_map
                 (fun e ->
                   if e.Comm.ev_op = Comm.Barrier then None
                   else Some (e.Comm.ev_label, e.Comm.ev_bits, e.Comm.ev_messages))
                 tr)
          in
          Alcotest.(check bool) (lbl ^ " payload events keep their labels")
            true
            (payload trf = payload trs);
          Array.iteri
            (fun i a ->
              Alcotest.(check (array int)) (lbl ^ " track value") vs.(i) a)
            vf)
        cases)
    kinds

(* A track that raises (a Mal-HM abort on a tampered mul) leaves no open
   buffer behind: the meter stays live, so the next primitive is counted
   and reaches the channel. *)
let test_fuse_rounds_abort () =
  let ctx = Ctx.create ~seed:31 Ctx.Mal_hm in
  let comm = ctx.Ctx.comm in
  let x = Mpc.share_a ctx [| 3; 5; 7 |] in
  let exchanges, _, ch = counting_channel comm in
  Channel.with_channel ctx ch @@ fun () ->
  let tampered ~party ~op = if party = 2 && op = "mul" then Some 1 else None in
  Alcotest.check_raises "tampered track aborts"
    (Ctx.Abort "mul: cross-term verification failed") (fun () ->
      ignore
        (Mpc.fuse_rounds ctx
           [|
             (fun () -> Mpc.mul ctx x x);
             (fun () -> Ctx.with_tamper ctx tampered (fun () -> Mpc.mul ctx x x));
           |]));
  Alcotest.(check int) "no open track" 0 (List.length comm.Comm.tracks);
  let before = Comm.snapshot comm and seen = !exchanges in
  ignore (Mpc.mul ctx x x);
  Alcotest.(check int) "next mul is counted" 1
    (Comm.since comm before).Comm.t_rounds;
  Alcotest.(check int) "next mul reaches the channel" (seen + 1) !exchanges

(* Every batched entry point accepts zero lanes: nothing in, nothing out,
   no round, bit, message or dealer draw charged. *)
let test_zero_lanes () =
  List.iter
    (fun k ->
      let ctx = Ctx.create ~seed:29 k in
      let on0 = Comm.snapshot ctx.Ctx.comm
      and pre0 = Comm.snapshot ctx.Ctx.preproc in
      let empty name n =
        Alcotest.(check int) (Ctx.kind_label k ^ " " ^ name ^ " lanes") 0 n
      in
      let none : Share.shared array = [||] and nonef : Share.flags array = [||] in
      empty "mul_many" (Array.length (Mpc.mul_many ctx none none));
      empty "band_many" (Array.length (Mpc.band_many ctx none none));
      empty "bor_many" (Array.length (Mpc.bor_many ctx none none));
      empty "open_many" (Array.length (Mpc.open_many ctx none));
      empty "band_f_many" (Array.length (Mpc.band_f_many ctx nonef nonef));
      empty "bor_f_many" (Array.length (Mpc.bor_f_many ctx nonef nonef));
      empty "open_f_many" (Array.length (Mpc.open_f_many ctx nonef));
      empty "fuse_rounds" (Array.length (Mpc.fuse_rounds ctx [||]));
      empty "eq_many" (Array.length (Compare.eq_many ctx [||]));
      empty "lt_many" (Array.length (Compare.lt_many ctx [||]));
      empty "add_many" (Array.length (Adder.add_many ctx [||]));
      empty "select_many" (Array.length (Mux.select_many ctx [||]));
      empty "bit_b2a_many" (Array.length (Convert.bit_b2a_many ctx nonef));
      empty "a2b_many" (Array.length (Convert.a2b_many ctx [||]));
      Alcotest.(check bool)
        (Ctx.kind_label k ^ " nothing charged online")
        true
        (Comm.since ctx.Ctx.comm on0 = Comm.zero_tally);
      Alcotest.(check bool)
        (Ctx.kind_label k ^ " nothing charged in preprocessing")
        true
        (Comm.since ctx.Ctx.preproc pre0 = Comm.zero_tally))
    kinds

(* Expr evaluates an operator's operands (and an If's predicate and
   branches) as fused tracks, then their encoding conversions as a second
   fused pair: a whole expression costs the sum of its parts in bits and
   messages, but only the deepest operand plus the combining op in rounds. *)
let test_expr_operands_fuse () =
  let module E = Orq_core.Expr in
  let module T = Orq_core.Table in
  let module Col = Orq_core.Column in
  let n = 40 in
  let av = Array.init n (fun i -> (i * 977) land 0xffff)
  and bv = Array.init n (fun i -> ((i * 613) + 5) land 0xffff)
  and cv = Array.init n (fun i -> ((i * 13) + 1) land 63) in
  let table k =
    let ctx = Ctx.create ~seed:37 k in
    (ctx, T.create ctx "t" [ ("a", 16, av); ("b", 16, bv); ("c", 6, cv) ])
  in
  let tally ctx f =
    let before = Comm.snapshot ctx.Ctx.comm in
    let r = f () in
    (r, Comm.since ctx.Ctx.comm before)
  in
  (* the tally of [f] on a fresh table of protocol [k] *)
  let alone k f =
    let ctx, t = table k in
    tally ctx (fun () -> f ctx t)
  in
  let col_data c = Col.data c in
  List.iter
    (fun k ->
      let check name e want ~parts ~combine =
        let lbl = Ctx.kind_label k ^ " " ^ name in
        let ctx, t = table k in
        let c, full = tally ctx (fun () -> E.eval_col t e) in
        let got = Share.reconstruct (col_data c) in
        Alcotest.(check (array int)) (lbl ^ " values") want
          (Array.map (fun v -> v land Ring.mask c.Col.width) got);
        let sum f = List.fold_left (fun acc p -> acc + f p) (f combine) parts in
        let deepest = List.fold_left (fun d p -> max d p.Comm.t_rounds) 0 parts in
        Alcotest.(check int) (lbl ^ " bits") (sum (fun p -> p.Comm.t_bits)) full.Comm.t_bits;
        Alcotest.(check int) (lbl ^ " messages")
          (sum (fun p -> p.Comm.t_messages)) full.Comm.t_messages;
        Alcotest.(check int) (lbl ^ " rounds") (deepest + combine.Comm.t_rounds)
          full.Comm.t_rounds
      in
      (* Sub of two public-divisor quotients; the combining op is the
         fused b2a pair of the 10-bit quotients (65535 / 100 = 655), then
         the a2b of their difference, signed at 11 bits *)
      let qa, ta = alone k (fun _ t -> E.eval_col t E.(Div_pub (col "a", 100))) in
      let qb, tb = alone k (fun _ t -> E.eval_col t E.(Div_pub (col "b", 100))) in
      let _, tc =
        alone k (fun ctx _ ->
            let x =
              Mpc.fuse_rounds ctx
                [|
                  (fun () -> Convert.b2a ~w:qb.Col.width ~signed:false ctx (col_data qb));
                  (fun () -> Convert.b2a ~w:qa.Col.width ~signed:false ctx (col_data qa));
                |]
            in
            Convert.a2b ~w:11 ctx (Mpc.sub x.(1) x.(0)))
      in
      check "Sub (Div_pub, Div_pub)"
        E.(Div_pub (col "a", 100) -! Div_pub (col "b", 100))
        (Array.init n (fun i -> ((av.(i) / 100) - (bv.(i) / 100)) land Ring.mask 11))
        ~parts:[ ta; tb ] ~combine:tc;
      (* Mul of two boolean columns: both convert in one fused pair *)
      let _, tc =
        alone k (fun ctx t ->
            let x =
              Mpc.fuse_rounds ctx
                [|
                  (fun () -> Convert.b2a ~w:6 ~signed:false ctx (T.column t "c"));
                  (fun () -> Convert.b2a ~w:16 ~signed:false ctx (T.column t "a"));
                |]
            in
            Convert.a2b ~w:22 ctx (Mpc.mul ~width:22 ctx x.(1) x.(0)))
      in
      check "Mul (Col, Col)"
        E.(col "a" *! col "c")
        (Array.init n (fun i -> av.(i) * cv.(i)))
        ~parts:[] ~combine:tc;
      (* If: predicate and both branches are three tracks, then one mux at
         the wider branch's width *)
      let p = E.(col "a" <. col "b") in
      let bit, tp = alone k (fun _ t -> E.eval_pred t p) in
      let x, tx = alone k (fun _ t -> E.eval_col t E.(Div_pub (col "a", 3))) in
      let y, ty = alone k (fun _ t -> E.eval_col t E.(Div_pub (col "b" *! col "c", 5))) in
      let _, tc =
        alone k (fun ctx _ ->
            Mux.mux_b ~width:(max x.Col.width y.Col.width) ctx bit (col_data y) (col_data x))
      in
      check "If (Cmp, Div_pub, Div_pub)"
        E.(If (p, Div_pub (col "a", 3), Div_pub (col "b" *! col "c", 5)))
        (Array.init n (fun i ->
             if av.(i) < bv.(i) then av.(i) / 3 else bv.(i) * cv.(i) / 5))
        ~parts:[ tp; tx; ty ] ~combine:tc)
    kinds

let () =
  Alcotest.run "fusion"
    [
      ( "rounds",
        [
          Alcotest.test_case "band is one round" `Quick test_round_unit;
          Alcotest.test_case "single-circuit depth formulas" `Quick
            test_single_formulas;
          Alcotest.test_case "_many = max lane depth" `Quick
            test_many_max_depth;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "fused == unfused traffic and values" `Quick
            test_fused_equals_unfused;
          Alcotest.test_case "fuse_rounds combinator" `Quick
            test_fuse_rounds_combinator;
          Alcotest.test_case "fuse_rounds survives an aborting track" `Quick
            test_fuse_rounds_abort;
          Alcotest.test_case "zero lanes charge nothing" `Quick
            test_zero_lanes;
          Alcotest.test_case "expression operands fuse" `Quick
            test_expr_operands_fuse;
        ] );
    ]
