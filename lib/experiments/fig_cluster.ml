(* Cross-node netperf ring over the sharded engine.  See fig_cluster.mli.

   Determinism depends on three disciplines the setup below follows:
   every node's random streams are keyed on a per-node seed (never drawn
   from a sub-engine root, which depends on placement); all inter-node
   traffic crosses Wire relays (mailboxes with delivery dates fixed at
   send time), even when both ends share a shard; and setup work is
   scheduled, never driven, per node — the sharded loop runs once over
   each phase, so no node's clock outruns another's during deployment. *)

open Nestfusion
module Sharded = Nest_sim.Sharded
module Time = Nest_sim.Time
module Prng = Nest_sim.Prng
module Netperf = Nest_workloads.Netperf

let service_port = 5001
let gw_client_port = 7000   (* bound once per node's host ns: outbound side *)
let gw_server_port = 7100   (* inbound side, distinct so a node can do both *)
let link_latency = Time.us 50
let msg_size = 1280

type node = {
  n_ix : int;
  n_tb : Testbed.t;
  n_site : Nestfusion.Deploy.server_site option ref;
  mutable n_driver : Netperf.rr_driver option;
}

let build ~nodes ~shards ~seed () =
  let sd = Sharded.create ~seed ~shards () in
  let mk i =
    let tb =
      Testbed.create
        ~sharded:(sd, i mod shards)
        ~prefix:(Printf.sprintf "n%d:" i)
        ~rng:(Prng.create (Exp_util.node_seed seed i))
        ~num_vms:1 ()
    in
    { n_ix = i; n_tb = tb; n_site = ref None; n_driver = None }
  in
  (sd, Array.init nodes mk)

let setup sd ns =
  Array.iter
    (fun n ->
      Deploy.deploy_single n.n_tb ~mode:`Nat
        ~name:(Printf.sprintf "n%d:pod" n.n_ix)
        ~entity:"server" ~port:service_port
        ~k:(fun site ->
          ignore
            (Netperf.udp_echo_server site.Deploy.site_ns
               ~port:site.Deploy.site_port ~exec:site.Deploy.site_exec);
          n.n_site := Some site))
    ns;
  Sharded.run ~until:(Time.sec 1) sd;
  Array.iter
    (fun n ->
      if !(n.n_site) = None then
        failwith
          (Printf.sprintf "fig_cluster: node %d deployment stuck" n.n_ix))
    ns

(* With a named link profile the wire's base latency is the profile's
   one-way delay and each direction gets its own loss/jitter impairment.
   Impairment streams are keyed on (root seed, link index, direction) —
   never on placement — and all their draws happen inside the sending
   gateway's event on that direction's source shard, so the profile
   keeps the determinism contract. *)
let wire_ring sd ns ~shards ~seed ?profile () =
  let k = Array.length ns in
  Array.iter
    (fun n ->
      let peer = ns.((n.n_ix + 1) mod k) in
      let site =
        match !(peer.n_site) with Some s -> s | None -> assert false
      in
      let latency, fwd_impair, rev_impair =
        match profile with
        | None -> (link_latency, None, None)
        | Some p ->
          let dir d =
            Nest_net.Wire.impair_of_profile p
              ~rng:
                (Prng.create
                   (Exp_util.node_seed seed (1000 + (2 * n.n_ix) + d)))
          in
          (p.Nest_net.Netem.p_delay, Some (dir 0), Some (dir 1))
      in
      ignore
        (Nest_net.Wire.udp_relay sd
           ~client_side:
             (n.n_ix mod shards, Nest_virt.Host.ns n.n_tb.Testbed.host)
           ~server_side:
             (peer.n_ix mod shards, Nest_virt.Host.ns peer.n_tb.Testbed.host)
           ~client_port:gw_client_port ~server_port:gw_server_port
           ~target:(site.Deploy.site_addr, site.Deploy.site_port)
           ~latency ?fwd_impair ?rev_impair ()))
    ns

let start_drivers ns ~start ~stop ?profile () =
  let gw = Nest_net.Ipv4.of_string "192.168.100.1" in
  (* The watchdog must outlast a full worst-case RTT (two wire crossings
     plus jitter each way), else slow profiles count every reply lost. *)
  let resend_timeout =
    match profile with
    | None -> Time.ms 10
    | Some p ->
      max (Time.ms 10)
        (4 * (p.Nest_net.Netem.p_delay + p.Nest_net.Netem.p_jitter))
  in
  Array.iter
    (fun n ->
      let tb = n.n_tb in
      let cl_exec =
        Testbed.client_app_exec tb
          ~name:(Printf.sprintf "n%d:netperf-cl" n.n_ix)
      in
      n.n_driver <-
        Some
          (Netperf.udp_rr_driver tb ~cl_ns:tb.Testbed.client_ns ~cl_exec
             ~target:(fun () -> Some (gw, gw_client_port))
             ~msg_size ~resend_timeout ~start ~stop ()))
    ns

(* The digest folds each node's full observable outcome — attempt and
   loss counts plus the exact (completion date, round-trip) trace — in
   node order.  Anything scheduling-dependent would scramble it. *)
let digest_of ns =
  let b = Buffer.create 4096 in
  Array.iter
    (fun n ->
      let d = match n.n_driver with Some d -> d | None -> assert false in
      Buffer.add_string b
        (Printf.sprintf "node%d sent=%d lost=%d\n" n.n_ix (d.Netperf.rrd_sent ())
           (d.Netperf.rrd_lost ()));
      List.iter
        (fun (at, us) ->
          Buffer.add_string b (Printf.sprintf "%d %.6f\n" at us))
        (d.Netperf.rrd_completions ()))
    ns;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_scenario ?(nodes = 4) ?shards ?(domains = 1) ?(seed = 42L) ?profile
    ~quick () =
  let shards =
    match shards with Some s -> s | None -> Testbed.get_default_shards ()
  in
  let shards = max 1 (min shards nodes) in
  let d = Exp_util.durations ~quick in
  let sd, ns = build ~nodes ~shards ~seed () in
  setup sd ns;
  wire_ring sd ns ~shards ~seed ?profile ();
  let start = Time.sec 1 + d.Exp_util.warmup in
  let stop = start + d.Exp_util.measure in
  start_drivers ns ~start ~stop ?profile ();
  (* Past [stop] nothing sends, so one watchdog period of margin drains
     in-flight transactions deterministically. *)
  let margin =
    match profile with
    | None -> Time.ms 20
    | Some p ->
      Time.ms 20 + (8 * (p.Nest_net.Netem.p_delay + p.Nest_net.Netem.p_jitter))
  in
  Sharded.run ~until:(stop + margin) ~domains sd;
  (sd, ns)

let digest ?nodes ?shards ?domains ?seed ?profile ~quick () =
  let _, ns = run_scenario ?nodes ?shards ?domains ?seed ?profile ~quick () in
  digest_of ns

let run ?nodes ?shards ?domains ?seed ?profile ~quick () =
  let sd, ns = run_scenario ?nodes ?shards ?domains ?seed ?profile ~quick () in
  Exp_util.header
    (Printf.sprintf
       "Cluster: cross-node UDP_RR ring (%d nodes, %d shards, %d domains%s)"
       (Array.length ns) (Sharded.shards sd)
       (match domains with Some d -> d | None -> 1)
       (match profile with
       | None -> ""
       | Some p -> ", link " ^ p.Nest_net.Netem.p_name));
  Array.iter
    (fun n ->
      let d = match n.n_driver with Some d -> d | None -> assert false in
      let cs = d.Netperf.rrd_completions () in
      let lats = List.map snd cs in
      let mean =
        match lats with
        | [] -> 0.
        | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
      in
      Exp_util.row
        (Printf.sprintf
           "  node %d  sent %6d  lost %3d  completed %6d  mean rtt %8.1f us"
           n.n_ix (d.Netperf.rrd_sent ()) (d.Netperf.rrd_lost ())
           (List.length cs) mean))
    ns;
  Exp_util.kv "digest" (digest_of ns);
  Exp_util.row "";
  Exp_util.print_shard_table sd

let check ?(nodes = 4) ?(seed = 42L) ?profile ~quick () =
  let configs = [ (1, 1); (2, 1); (2, 2); (4, 2) ] in
  let digests =
    List.map
      (fun (shards, domains) ->
        let dg = digest ~nodes ~shards ~domains ~seed ?profile ~quick () in
        ((shards, domains), dg))
      configs
  in
  let reference = snd (List.hd digests) in
  List.iter
    (fun ((s, d), dg) ->
      Printf.printf "cluster shards=%d domains=%d  %s  %s\n" s d dg
        (if String.equal dg reference then "ok" else "MISMATCH"))
    digests;
  let identical =
    List.for_all (fun (_, dg) -> String.equal dg reference) digests
  in
  Printf.printf "cluster determinism (%d nodes, %d configs): %s\n" nodes
    (List.length configs)
    (if identical then "bit-identical" else "MISMATCH");
  identical
