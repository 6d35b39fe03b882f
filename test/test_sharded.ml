(* Conservative sharded engine: primitive ordering contracts, the
   deadlock guard, and the tentpole invariant — shards=1 ≡ shards=N
   byte-identical on the cross-node scenario and under chaos. *)

module Sharded = Nest_sim.Sharded
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time
module Chaos = Nest_fault.Chaos
module Fig_cluster = Nest_experiments.Fig_cluster

(* ------------------------------------------------------------------ *)
(* Primitives. *)

(* Two shards bounce a counter back and forth.  Each shard appends to
   its own log slot (single writer per domain); the merged trace must
   not depend on how many domains executed the run. *)
let ping_pong ~domains =
  let sd = Sharded.create ~shards:2 () in
  let e0 = Sharded.engine sd 0 and e1 = Sharded.engine sd 1 in
  let fwd = Sharded.link sd ~src:0 ~dst:1 ~lookahead:(Time.us 10) () in
  let rev = Sharded.link sd ~src:1 ~dst:0 ~lookahead:(Time.us 10) () in
  let logs = Array.make 2 [] in
  let note i now = logs.(i) <- now :: logs.(i) in
  let rec ping n () =
    note 0 (Engine.now e0);
    if n > 0 then
      Sharded.send sd fwd ~delay:(Time.us 15) (fun () ->
          note 1 (Engine.now e1);
          Sharded.send sd rev ~delay:(Time.us 25) (ping (n - 1)))
  in
  Engine.schedule_at e0 ~label:"ping" ~at:(Time.us 1) (ping 20);
  Sharded.run ~until:(Time.ms 2) ~domains sd;
  (List.rev logs.(0), List.rev logs.(1), Sharded.stats sd)

let test_ping_pong_domains_identical () =
  let l0, l1, _ = ping_pong ~domains:1 in
  let l0', l1', _ = ping_pong ~domains:2 in
  Alcotest.(check (list int)) "shard 0 trace, domains 1 = 2" l0 l0';
  Alcotest.(check (list int)) "shard 1 trace, domains 1 = 2" l1 l1';
  Alcotest.(check int) "all pings landed" 21 (List.length l0)

let test_stats_counters () =
  let _, _, st = ping_pong ~domains:1 in
  Alcotest.(check int) "two shards" 2 (Array.length st);
  Alcotest.(check int) "shard 1 deliveries = pings" 20 st.(1).Sharded.ss_delivered;
  Alcotest.(check bool) "events counted" true (st.(0).Sharded.ss_events > 0)

(* Same-date ordering: deliveries beat local events, and among
   same-date deliveries link creation order wins regardless of which
   link sent first. *)
let test_tie_order () =
  let sd = Sharded.create ~shards:2 () in
  let e0 = Sharded.engine sd 0 and e1 = Sharded.engine sd 1 in
  let la = Sharded.link sd ~src:1 ~dst:0 ~lookahead:(Time.us 10) () in
  let lb = Sharded.link sd ~src:1 ~dst:0 ~lookahead:(Time.us 10) () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  (* Local shard-0 event dated exactly at the deliveries' date. *)
  Engine.schedule_at e0 ~label:"local" ~at:(Time.us 30) (note "local");
  Engine.schedule_at e1 ~label:"emit" ~at:(Time.us 10) (fun () ->
      (* Send on the later-created link first: creation order must
         still decide the tie at the destination. *)
      Sharded.send sd lb ~delay:(Time.us 20) (note "b");
      Sharded.send sd la ~delay:(Time.us 20) (note "a"));
  Sharded.run ~until:(Time.us 100) sd;
  Alcotest.(check (list string))
    "deliveries (in link order) before the same-date local event"
    [ "a"; "b"; "local" ] (List.rev !log)

(* Many inbound links into shard 0: eight from shard 1 plus a self-link
   created fifth.  Equal-date messages are sent in reverse creation
   order; two deliveries send again (one bouncing through shard 1, one
   on the self-link) and one schedules a same-date local event.  The
   pump scans the delivery head once and again only after each pop, so
   this pins that the cached head never reorders a tie. *)
let many_links ~domains =
  let sd = Sharded.create ~shards:2 () in
  let e0 = Sharded.engine sd 0 and e1 = Sharded.engine sd 1 in
  let la = Time.us 10 in
  let inbound =
    Array.init 9 (fun i ->
        let src = if i = 4 then 0 else 1 in
        Sharded.link sd ~src ~dst:0 ~lookahead:la ())
  in
  let back = Sharded.link sd ~src:0 ~dst:1 ~lookahead:la () in
  let logs = Array.make 2 [] in
  let note i tag () =
    logs.(i) <- (tag, Engine.now (Sharded.engine sd i)) :: logs.(i)
  in
  let deliver i () =
    note 0 (Printf.sprintf "d%d" i) ();
    if i = 2 then
      Sharded.send sd back ~delay:la (fun () ->
          note 1 "echo" ();
          Sharded.send sd inbound.(7) ~delay:la (note 0 "echo7");
          Sharded.send sd inbound.(1) ~delay:la (note 0 "echo1"));
    if i = 4 then begin
      Engine.schedule_at e0 ~at:(Engine.now e0) (note 0 "local-from-d4");
      Sharded.send sd inbound.(4) ~delay:(2 * la) (note 0 "self2")
    end
  in
  Engine.schedule_at e1 ~at:(Time.us 10) (fun () ->
      note 1 "emit" ();
      for i = 8 downto 0 do
        if i <> 4 then Sharded.send sd inbound.(i) ~delay:(2 * la) (deliver i)
      done);
  Engine.schedule_at e0 ~at:(Time.us 10) (fun () ->
      Sharded.send sd inbound.(4) ~delay:(2 * la) (deliver 4));
  Engine.schedule_at e0 ~at:(Time.us 30) (note 0 "local");
  Engine.schedule_at e0 ~at:(Time.us 50) (note 0 "local50");
  Sharded.run ~until:(Time.us 200) ~domains sd;
  (List.rev logs.(0), List.rev logs.(1))

let test_many_links_order () =
  let l0, l1 = many_links ~domains:1 in
  let at30 = List.map (fun tag -> (tag, Time.us 30)) in
  let at50 = List.map (fun tag -> (tag, Time.us 50)) in
  Alcotest.(check (list (pair string int)))
    "shard 0: deliveries in link-creation order, then same-date locals"
    (at30
       [ "d0"; "d1"; "d2"; "d3"; "d4"; "d5"; "d6"; "d7"; "d8"; "local";
         "local-from-d4" ]
    @ at50 [ "echo1"; "self2"; "echo7"; "local50" ])
    l0;
  Alcotest.(check (list (pair string int)))
    "shard 1" [ ("emit", Time.us 10); ("echo", Time.us 40) ] l1;
  let l0', l1' = many_links ~domains:2 in
  Alcotest.(check (list (pair string int))) "shard 0, domains 1 = 2" l0 l0';
  Alcotest.(check (list (pair string int))) "shard 1, domains 1 = 2" l1 l1'

let test_zero_lookahead_rejected () =
  let sd = Sharded.create ~shards:2 () in
  Alcotest.check_raises "lookahead 0 refused at link creation"
    (Invalid_argument
       "Sharded.link: lookahead must be > 0 (a zero-lookahead link \
        cannot be synchronized conservatively and would deadlock)")
    (fun () -> ignore (Sharded.link sd ~src:0 ~dst:1 ~lookahead:0 ()))

let test_undersized_delay_rejected () =
  let sd = Sharded.create ~shards:2 () in
  let e0 = Sharded.engine sd 0 in
  let l = Sharded.link sd ~src:0 ~dst:1 ~lookahead:(Time.us 10) () in
  let saw = ref false in
  Engine.schedule_at e0 ~label:"bad" ~at:1 (fun () ->
      match Sharded.send sd l ~delay:(Time.us 5) (fun () -> ()) with
      | () -> ()
      | exception Invalid_argument _ -> saw := true);
  Sharded.run ~until:(Time.us 50) sd;
  Alcotest.(check bool) "delay < lookahead refused at send" true !saw

(* ------------------------------------------------------------------ *)
(* The tentpole invariant on the real scenario. *)

let test_cluster_digest_shard_identity () =
  let digest ?domains shards =
    Fig_cluster.digest ~nodes:4 ~shards ?domains ~quick:true ()
  in
  let d1 = digest 1 in
  Alcotest.(check string) "shards 1 = 2" d1 (digest 2);
  Alcotest.(check string) "shards 1 = 4" d1 (digest 4);
  Alcotest.(check string) "shards 4 over 2 domains" d1 (digest ~domains:2 4)

(* The chaos digest must survive the CLI's --shards knob: a fused-cell
   run is single-testbed, so folding it onto N shards must be a no-op
   for results. *)
let test_chaos_digest_with_shards () =
  let digest () =
    Chaos.digest (Chaos.run_cell ~quick:true ~mode:`Brfusion ~rate:0.5 ~seed:7L ())
  in
  let d1 = digest () in
  Nestfusion.Testbed.set_default_shards 2;
  Fun.protect
    ~finally:(fun () -> Nestfusion.Testbed.set_default_shards 1)
    (fun () ->
      Alcotest.(check string) "chaos digest, shards 1 = 2" d1 (digest ()))

let () =
  Alcotest.run "sharded"
    [
      ( "primitives",
        [
          Alcotest.test_case "ping-pong domains 1 = 2" `Quick
            test_ping_pong_domains_identical;
          Alcotest.test_case "per-shard stats" `Quick test_stats_counters;
          Alcotest.test_case "same-date tie order" `Quick test_tie_order;
          Alcotest.test_case "many-link tie order" `Quick
            test_many_links_order;
        ] );
      ( "guards",
        [
          Alcotest.test_case "zero lookahead rejected" `Quick
            test_zero_lookahead_rejected;
          Alcotest.test_case "undersized delay rejected" `Quick
            test_undersized_delay_rejected;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cluster digest shard identity" `Slow
            test_cluster_digest_shard_identity;
          Alcotest.test_case "chaos digest with --shards" `Quick
            test_chaos_digest_with_shards;
        ] );
    ]
