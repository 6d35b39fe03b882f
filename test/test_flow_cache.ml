(* Flow-cache correctness: verdicts must be invalidated by every table
   mutation they depend on (routes, devices, ARP, netfilter), and the
   cache must be semantically invisible — identical results on or off.
   Also pins down the Route.lookup contract the cache memoizes. *)

open Nest_net
module Engine = Nest_sim.Engine
module Exec = Nest_sim.Exec

let cheap_costs e =
  let sys_exec = Exec.create e ~name:"sys" in
  let soft_exec = Exec.create e ~name:"soft" in
  { Stack.tx = Hop.make sys_exec ~fixed_ns:100;
    rx = Hop.make soft_exec ~fixed_ns:100;
    forward = Hop.make soft_exec ~fixed_ns:50;
    nat = Hop.make soft_exec ~fixed_ns:50;
    nat_per_rule_ns = 10;
    local = Hop.make sys_exec ~fixed_ns:100;
    syscall = Hop.make sys_exec ~fixed_ns:50;
    wakeup_delay_ns = 0 }

let ip = Ipv4.of_string
let cidr = Ipv4.cidr_of_string

let two_ns () =
  let e = Engine.create () in
  let a = Stack.create e ~name:"a" ~costs:(cheap_costs e) () in
  let b = Stack.create e ~name:"b" ~costs:(cheap_costs e) () in
  let hop = Hop.free e in
  let da, db =
    Veth.pair ~a_name:"a0" ~a_mac:(Mac.of_int 0xa) ~b_name:"b0"
      ~b_mac:(Mac.of_int 0xb) ~ab_hop:hop ~ba_hop:hop ()
  in
  Stack.attach a da;
  Stack.add_addr a da (ip "192.168.1.1") (cidr "192.168.1.0/24");
  Stack.attach b db;
  Stack.add_addr b db (ip "192.168.1.2") (cidr "192.168.1.0/24");
  (e, a, b, da, db)

(* ------------------------------------------------------------------ *)
(* Route.lookup: the contract the cache memoizes. *)

let test_route_longest_prefix () =
  let e = Engine.create () in
  let a = Stack.create e ~name:"r" ~costs:(cheap_costs e) () in
  let hop = Hop.free e in
  let d1, _ =
    Veth.pair ~a_name:"d1" ~a_mac:(Mac.of_int 1) ~b_name:"x1"
      ~b_mac:(Mac.of_int 2) ~ab_hop:hop ~ba_hop:hop ()
  in
  let d2, _ =
    Veth.pair ~a_name:"d2" ~a_mac:(Mac.of_int 3) ~b_name:"x2"
      ~b_mac:(Mac.of_int 4) ~ab_hop:hop ~ba_hop:hop ()
  in
  let rt = Stack.routes a in
  Route.add rt ~dst:(cidr "10.0.0.0/8") ~dev:d1 ();
  Route.add rt ~dst:(cidr "10.1.0.0/16") ~dev:d2 ();
  Route.add rt ~dst:(cidr "10.1.2.0/24") ~dev:d1 ();
  let dev_of addr =
    match Route.lookup rt (ip addr) with
    | Some en -> en.Route.dev.Dev.name
    | None -> "none"
  in
  Alcotest.(check string) "/24 beats /16 and /8" "d1" (dev_of "10.1.2.3");
  Alcotest.(check string) "/16 beats /8" "d2" (dev_of "10.1.9.9");
  Alcotest.(check string) "/8 catches the rest" "d1" (dev_of "10.200.0.1");
  Alcotest.(check string) "no match" "none" (dev_of "172.16.0.1")

let test_route_most_recent_wins () =
  let e = Engine.create () in
  let a = Stack.create e ~name:"r" ~costs:(cheap_costs e) () in
  let hop = Hop.free e in
  let d1, _ =
    Veth.pair ~a_name:"d1" ~a_mac:(Mac.of_int 1) ~b_name:"x1"
      ~b_mac:(Mac.of_int 2) ~ab_hop:hop ~ba_hop:hop ()
  in
  let d2, _ =
    Veth.pair ~a_name:"d2" ~a_mac:(Mac.of_int 3) ~b_name:"x2"
      ~b_mac:(Mac.of_int 4) ~ab_hop:hop ~ba_hop:hop ()
  in
  let rt = Stack.routes a in
  Route.add rt ~dst:(cidr "10.0.0.0/8") ~dev:d1 ();
  Route.add rt ~dst:(cidr "10.0.0.0/8") ~dev:d2 ();
  (match Route.lookup rt (ip "10.1.1.1") with
  | Some en -> Alcotest.(check string) "most recent of equal prefixes" "d2"
                 en.Route.dev.Dev.name
  | None -> Alcotest.fail "expected a route");
  Route.remove_dev rt d2;
  match Route.lookup rt (ip "10.1.1.1") with
  | Some en ->
    Alcotest.(check string) "older entry resurfaces after remove_dev" "d1"
      en.Route.dev.Dev.name
  | None -> Alcotest.fail "expected the surviving route"

(* ------------------------------------------------------------------ *)
(* Cache population and hit accounting. *)

let send_one c dst =
  Stack.Udp.sendto c ~dst ~dst_port:53 (Payload.raw 32)

let test_cache_hits_accumulate () =
  let e, a, b, _, _ = two_ns () in
  Alcotest.(check bool) "cache on by default" true (Stack.flow_cache_enabled a);
  let _s = Stack.Udp.bind b ~port:53 (fun _ ~src:_ _ -> ()) in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ _ -> ()) in
  (* First packet: miss with ARP unresolved, so no verdict installs
     (async resolution).  Second packet: miss again, but the neighbour
     is known now, so the verdict is cached. *)
  send_one c (ip "192.168.1.2");
  Engine.run e;
  let hits0, misses0 = Stack.flow_cache_stats a in
  Alcotest.(check bool) "first packet misses" true (misses0 >= 1);
  send_one c (ip "192.168.1.2");
  Engine.run e;
  let hits1, misses1 = Stack.flow_cache_stats a in
  for _ = 1 to 5 do
    send_one c (ip "192.168.1.2")
  done;
  Engine.run e;
  let hits2, misses2 = Stack.flow_cache_stats a in
  Alcotest.(check int) "no new misses once warm" misses1 misses2;
  Alcotest.(check bool) "subsequent packets hit" true
    (hits2 >= hits1 + 5 && hits1 >= hits0);
  Alcotest.(check int) "all delivered" 7 (Stack.counters b).Stack.delivered

(* ------------------------------------------------------------------ *)
(* Invalidation: route add, device detach, ARP expiry, netfilter rule. *)

let warm () =
  let e, a, b, da, db = two_ns () in
  let _s = Stack.Udp.bind b ~port:53 (fun _ ~src:_ _ -> ()) in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ _ -> ()) in
  (* miss (ARP unresolved) / miss + install / hit *)
  for _ = 1 to 3 do
    send_one c (ip "192.168.1.2");
    Engine.run e
  done;
  let hits, _ = Stack.flow_cache_stats a in
  Alcotest.(check bool) "warm: cache is hitting" true (hits >= 1);
  (e, a, b, da, db, c)

let test_invalidate_on_route_add () =
  let e, a, _, da, _, c = warm () in
  let _, misses0 = Stack.flow_cache_stats a in
  (* Any table mutation must flush dependent verdicts, even one that
     resolves to the same forwarding decision. *)
  Route.add (Stack.routes a) ~dst:(cidr "10.99.0.0/16") ~dev:da
    ~gateway:(ip "192.168.1.2") ();
  send_one c (ip "192.168.1.2");
  Engine.run e;
  let _, misses1 = Stack.flow_cache_stats a in
  Alcotest.(check int) "route add forces a re-walk" (misses0 + 1) misses1

let test_invalidate_on_dev_detach () =
  let e, a, b, da, _, c = warm () in
  let delivered0 = (Stack.counters b).Stack.delivered in
  Stack.detach a da;
  send_one c (ip "192.168.1.2");
  Engine.run e;
  Alcotest.(check int) "no stale verdict into a detached device"
    delivered0 (Stack.counters b).Stack.delivered;
  Alcotest.(check int) "counted as unroutable" 1
    (Stack.counters a).Stack.dropped_no_route

let test_invalidate_on_arp_flush () =
  let e, a, b, _, _, c = warm () in
  let _, misses0 = Stack.flow_cache_stats a in
  Stack.arp_flush a;
  Alcotest.(check int) "neighbour table empty" 0
    (List.length (Stack.arp_cache a));
  send_one c (ip "192.168.1.2");
  Engine.run e;
  let _, misses1 = Stack.flow_cache_stats a in
  Alcotest.(check bool) "re-resolves and re-installs" true (misses1 > misses0);
  Alcotest.(check int) "still delivered after re-ARP" 4
    (Stack.counters b).Stack.delivered

let test_invalidate_on_netfilter_rule () =
  let e, a, b, _, _, c = warm () in
  (* A rule installed after the cache warmed must still apply: a cached
     "transmit" verdict may not bypass the new Output-hook drop. *)
  Nat.drop_from (Stack.nf a) ~name:"deny" ~hook:Netfilter.Output
    ~src_subnet:(cidr "192.168.1.0/24");
  let delivered0 = (Stack.counters b).Stack.delivered in
  send_one c (ip "192.168.1.2");
  Engine.run e;
  Alcotest.(check int) "new rule drops despite warm cache"
    delivered0 (Stack.counters b).Stack.delivered;
  Alcotest.(check int) "drop counted" 1
    (Stack.counters a).Stack.dropped_filtered

(* ------------------------------------------------------------------ *)
(* Neighbour churn: a MAC move invalidates, a GARP storm that re-announces
   an unchanged MAC does not. *)

let test_garp_storm_same_mac_keeps_cache () =
  let e, a, b, _, db, c = warm () in
  let hits0, misses0 = Stack.flow_cache_stats a in
  let full0 = Stack.flow_cache_invalidations a in
  (* Chaos recovery re-announces addresses aggressively; as long as the
     MAC is unchanged nothing moved, so nothing may invalidate. *)
  for _ = 1 to 10 do
    Stack.garp b db (ip "192.168.1.2")
  done;
  Engine.run e;
  send_one c (ip "192.168.1.2");
  Engine.run e;
  let hits1, misses1 = Stack.flow_cache_stats a in
  Alcotest.(check int) "no re-walk after same-MAC GARP storm" misses0 misses1;
  Alcotest.(check bool) "still hitting" true (hits1 > hits0);
  let full1 = Stack.flow_cache_invalidations a in
  Alcotest.(check int) "no invalidation" full0 full1

let test_mac_move_invalidates () =
  let e, a, b, _, db, c = warm () in
  let _, misses0 = Stack.flow_cache_stats a in
  (* The peer NIC is replaced: same address, new MAC, announced by a
     burst of gratuitous ARPs. *)
  db.Dev.mac <- Mac.of_int 0xbb;
  for _ = 1 to 5 do
    Stack.garp b db (ip "192.168.1.2")
  done;
  Engine.run e;
  let delivered0 = (Stack.counters b).Stack.delivered in
  send_one c (ip "192.168.1.2");
  Engine.run e;
  let _, misses1 = Stack.flow_cache_stats a in
  Alcotest.(check int) "MAC move forces a re-walk" (misses0 + 1) misses1;
  Alcotest.(check int) "delivered at the new MAC" (delivered0 + 1)
    (Stack.counters b).Stack.delivered

(* ------------------------------------------------------------------ *)
(* Reflector (Hostlo) egress: the local-deliver-vs-reflect decision
   follows live socket state. *)

(* Two pod namespaces multiplexed on one Hostlo loopback tap, wired as
   the VMM does but without the VM layer: each endpoint shares the tap's
   MAC. *)
let reflector_world () =
  let e = Engine.create () in
  let tap =
    Tap.create e ~name:"hlo" ~mode:Tap.Loopback ~hop:(Hop.free e)
      ~mac:(Mac.of_int 0x42) ()
  in
  let mk name =
    let ns =
      Stack.create e ~name ~costs:(cheap_costs e) ~with_loopback:false ()
    in
    let q = Tap.add_queue tap ~owner:name in
    let dev =
      Dev.create ~name:(name ^ ":hlo0") ~mac:(Tap.mac tap) ~l2:Dev.Reflector ()
    in
    Dev.set_tx dev (fun f -> Tap.queue_write q f);
    Tap.queue_set_backend q (fun f -> Dev.deliver dev f);
    Stack.attach ns dev;
    Stack.add_addr ns dev (ip "127.0.0.1") (cidr "127.0.0.0/8");
    ns
  in
  let a = mk "pa" in
  let b = mk "pb" in
  (e, tap, a, b)

let test_reflector_socket_transition () =
  let e, _tap, a, b = reflector_world () in
  let b_got = ref 0 and a_got = ref 0 in
  let _sb = Stack.Udp.bind b ~port:53 (fun _ ~src:_ _ -> incr b_got) in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ _ -> ()) in
  for _ = 1 to 3 do
    send_one c (ip "127.0.0.1")
  done;
  Engine.run e;
  Alcotest.(check int) "reflected to the peer while a has no server" 3 !b_got;
  (* A server appears in the sender's own fraction: localhost is local
     again. *)
  let sa = Stack.Udp.bind a ~port:53 (fun _ ~src:_ _ -> incr a_got) in
  for _ = 1 to 3 do
    send_one c (ip "127.0.0.1")
  done;
  Engine.run e;
  Alcotest.(check int) "local server captures localhost" 3 !a_got;
  Alcotest.(check int) "peer no longer sees the flow" 3 !b_got;
  (* Server closes: back to reflection. *)
  Stack.Udp.close sa;
  for _ = 1 to 3 do
    send_one c (ip "127.0.0.1")
  done;
  Engine.run e;
  Alcotest.(check int) "reflection resumes after close" 6 !b_got;
  Alcotest.(check int) "local server is gone" 3 !a_got

let run_reflector_exchange ~cache () =
  let e, _tap, a, b = reflector_world () in
  if not cache then begin
    Stack.set_flow_cache a false;
    Stack.set_flow_cache b false
  end;
  let b_got = ref 0 and a_got = ref 0 in
  let _sb = Stack.Udp.bind b ~port:53 (fun _ ~src:_ _ -> incr b_got) in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ _ -> ()) in
  for _ = 1 to 4 do
    send_one c (ip "127.0.0.1")
  done;
  Engine.run e;
  let sa = Stack.Udp.bind a ~port:53 (fun _ ~src:_ _ -> incr a_got) in
  for _ = 1 to 4 do
    send_one c (ip "127.0.0.1")
  done;
  Engine.run e;
  Stack.Udp.close sa;
  for _ = 1 to 4 do
    send_one c (ip "127.0.0.1")
  done;
  Engine.run e;
  [ !a_got; !b_got; (Stack.counters a).Stack.dropped_no_socket; Engine.now e ]

let test_reflector_on_off_equivalent () =
  Alcotest.(check (list int))
    "reflector churn identical with cache on/off"
    (run_reflector_exchange ~cache:false ())
    (run_reflector_exchange ~cache:true ())

(* ------------------------------------------------------------------ *)
(* Equivalence: cache on vs off must be observationally identical. *)

let run_exchange ~cache () =
  let e, a, b, _, _ = two_ns () in
  if not cache then begin
    Stack.set_flow_cache a false;
    Stack.set_flow_cache b false
  end;
  let got = ref 0 in
  let _s = Stack.Udp.bind b ~port:53 (fun _ ~src:_ _ -> incr got) in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ _ -> ()) in
  for _ = 1 to 8 do
    send_one c (ip "192.168.1.2")
  done;
  Engine.run e;
  let rtt = ref 0 in
  Stack.ping a ~dst:(ip "192.168.1.2") ~on_reply:(fun ~rtt_ns -> rtt := rtt_ns);
  Engine.run e;
  (!got, Engine.now e, !rtt)

let test_cache_on_off_equivalent () =
  let d_on, t_on, rtt_on = run_exchange ~cache:true () in
  let d_off, t_off, rtt_off = run_exchange ~cache:false () in
  Alcotest.(check int) "deliveries equal" d_off d_on;
  Alcotest.(check int) "simulated end time identical" t_off t_on;
  Alcotest.(check int) "ping rtt identical" rtt_off rtt_on

let () =
  Alcotest.run "flow_cache"
    [ ( "route",
        [ Alcotest.test_case "longest prefix" `Quick test_route_longest_prefix;
          Alcotest.test_case "most recent wins" `Quick
            test_route_most_recent_wins ] );
      ( "cache",
        [ Alcotest.test_case "hits accumulate" `Quick
            test_cache_hits_accumulate;
          Alcotest.test_case "invalidate: route add" `Quick
            test_invalidate_on_route_add;
          Alcotest.test_case "invalidate: dev detach" `Quick
            test_invalidate_on_dev_detach;
          Alcotest.test_case "invalidate: arp flush" `Quick
            test_invalidate_on_arp_flush;
          Alcotest.test_case "invalidate: netfilter rule" `Quick
            test_invalidate_on_netfilter_rule ] );
      ( "scoped",
        [ Alcotest.test_case "GARP storm, same MAC" `Quick
            test_garp_storm_same_mac_keeps_cache;
          Alcotest.test_case "MAC move is scoped" `Quick
            test_mac_move_invalidates ] );
      ( "reflector",
        [ Alcotest.test_case "socket transition" `Quick
            test_reflector_socket_transition;
          Alcotest.test_case "on/off identical" `Quick
            test_reflector_on_off_equivalent ] );
      ( "equivalence",
        [ Alcotest.test_case "on/off identical" `Quick
            test_cache_on_off_equivalent ] ) ]
