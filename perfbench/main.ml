(* One pass of a perfbench workload, or the isolated layer kernels.

   perfbench/run.py runs this program once per pass, so that every pass
   starts from a fresh process: a pass never inherits the heap, or any
   process-global state, that an earlier pass left behind.  The program
   prints one JSON object; run.py checks the digests, aggregates the
   passes and reports the metrics (see perfbench/README.md).

     main.exe --workload W --seed N [--traced] [--shards S] [--domains D]
     main.exe --kernels

   A pass runs every cell of the workload once.  A cell is one fresh
   deployment plus one timed workload call; its record holds the host
   times, allocation, engine events, testbed layer counters and a digest
   of the simulated result.  [--traced] turns the engine's per-label
   profile on for the call. *)

open Nest_experiments
module Time = Nest_sim.Time
module Engine = Nest_sim.Engine
module Metrics = Nest_sim.Metrics
module Stats = Nest_sim.Stats
module Sharded = Nest_sim.Sharded
module Hdr = Nest_sim.Hdr
module Prng = Nest_sim.Prng
module Netperf = Nest_workloads.Netperf
module App = Nest_workloads.App
module Testbed = Nestfusion.Testbed
module Loadgen = Nest_loadgen.Loadgen
module Admission = Nest_loadgen.Admission

let now = Unix.gettimeofday
let md5 s = Digest.to_hex (Digest.string s)

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list (List.sort Float.compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* JSON output.                                                        *)

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jnum x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"
let jint = string_of_int

let jobj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields) ^ "}"

let jlist items = "[" ^ String.concat ", " items ^ "]"

(* ------------------------------------------------------------------ *)
(* Workloads.                                                          *)

type nmode = Single of Nestfusion.Modes.single | Pair of Nestfusion.Modes.pair
type call = Stream | Rr
type ncell = { c_id : string; c_mode : nmode; c_call : call; c_size : int }

let mode_id = function
  | Single `NoCont -> "nocont"
  | Single `Nat -> "nat"
  | Single `Brfusion -> "brfusion"
  | Pair `SameNode -> "samenode"
  | Pair `NatX -> "natx"
  | Pair `Overlay -> "overlay"
  | Pair `Hostlo -> "hostlo"

let ncell c_mode c_call c_size =
  { c_id =
      Printf.sprintf "%s/%s/%d" (mode_id c_mode)
        (match c_call with Stream -> "stream" | Rr -> "rr")
        c_size;
    c_mode; c_call; c_size }

(* fig2/fig4 shape: every single-server mode at a small, an MTU-sized
   and a segmentation-heavy message, one stream and one RR cell each. *)
let single_cells =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun size -> [ ncell (Single m) Stream size; ncell (Single m) Rr size ])
        [ 64; 1024; 16384 ])
    Nestfusion.Modes.all_single

(* fig10-15 shape: every intra-pod path, sparse RR plus one stream. *)
let pair_cells =
  List.concat_map
    (fun m ->
      [ ncell (Pair m) Rr 64; ncell (Pair m) Rr 1024; ncell (Pair m) Stream 1024 ])
    Nestfusion.Modes.all_pair

(* Shorter than [Exp_util.durations ~quick:true] (50/250 ms) so that a
   run holds enough passes for a median; the cell shape is unchanged. *)
let warmup = Time.ms 10
let duration = Time.ms 50

let deploy ~seed = function
  | Single mode ->
    let tb, site = Exp_util.deploy_single_sync ~seed ~mode ~port:7000 () in
    (tb, App.of_single tb site)
  | Pair mode ->
    let tb, site = Exp_util.deploy_pair_sync ~seed ~mode ~port:7000 () in
    (tb, App.of_pair site)

type outcome =
  | Streamed of Netperf.stream_result
  | Answered of Netperf.rr_result

let run_call c tb ep =
  match c.c_call with
  | Stream ->
    Streamed (Netperf.tcp_stream tb ep ~msg_size:c.c_size ~warmup ~duration ())
  | Rr -> Answered (Netperf.udp_rr tb ep ~msg_size:c.c_size ~warmup ~duration ())

let outcome_ops = function
  | Streamed r -> r.Netperf.sends
  | Answered r -> r.Netperf.transactions

(* Sends, bytes, transactions and every latency sample, bit-exact. *)
let outcome_digest = function
  | Streamed r ->
    md5
      (Printf.sprintf "stream sends=%d bytes=%d" r.Netperf.sends
         r.Netperf.bytes_delivered)
  | Answered r ->
    let b = Buffer.create 65536 in
    Buffer.add_string b (Printf.sprintf "rr tx=%d" r.Netperf.transactions);
    Array.iter
      (fun x -> Buffer.add_string b (Printf.sprintf " %h" x))
      (Stats.samples r.Netperf.latency);
    md5 (Buffer.contents b)

let fleet_params ~seed = function
  | "fleet" ->
    { Fig_fleet.default_params with
      nodes = 8; rate = 100_000.0; seed = Int64.of_int seed }
  | _ ->
    (* fleet-overload: about twice the rate the burn-admitted, autoscaled
       pools absorb, so roughly half of the offered requests are shed. *)
    { Fig_fleet.default_params with
      nodes = 48; rate = 60_000.0; service_us = 2000.0; admission = `Burn;
      autoscale = true; profile = Nest_net.Netem.profile "lossy";
      seed = Int64.of_int seed }

(* The measured split of each fleet workload: (shards, domains). *)
let fleet_split = function "fleet" -> (2, 2) | _ -> (2, 1)

let summary_digest (s : Fig_fleet.summary) =
  md5
    (Printf.sprintf
       "%s offered=%d shed=%d lost=%d completed=%d pods=%d scale=%d p99=%h \
        burn=%h"
       s.s_digest s.s_offered s.s_shed s.s_lost s.s_completed s.s_pods
       s.s_scale_events s.s_p99_us s.s_avail_worst_burn)

(* ------------------------------------------------------------------ *)
(* One cell.                                                           *)

(* Testbed counters that name a layer: per-device hops, per-namespace
   flow-cache and drop books, the overlay resolution cache. *)
let layer_counters eng =
  List.filter_map
    (fun (k, v) ->
      let keep =
        String.starts_with ~prefix:"hop." k
        || String.starts_with ~prefix:"ns." k
        || String.starts_with ~prefix:"fc.overlay." k
      in
      match v with
      | Metrics.Counter c when keep -> Some (k, float_of_int c)
      | Metrics.Gauge g when keep -> Some (k, g)
      | _ -> None)
    (Metrics.snapshot (Engine.metrics eng))

let gc_json (g0 : Gc.stat) (g1 : Gc.stat) =
  jobj
    [ ("minor_collections", jint (g1.minor_collections - g0.minor_collections));
      ("major_collections", jint (g1.major_collections - g0.major_collections));
      ("promoted_words", jnum (g1.promoted_words -. g0.promoted_words)) ]

let cell_error id e =
  jobj [ ("id", jstr id); ("error", jstr (Printexc.to_string e)) ]

let netperf_cell ~seed ~traced c =
  try
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let tb, ep = deploy ~seed:(Int64.of_int seed) c.c_mode in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let eng = tb.Testbed.engine in
    if traced then Engine.enable_profiling ~clock:now eng;
    let before = layer_counters eng in
    let e0 = Engine.events_processed eng in
    let g0 = Gc.quick_stat () in
    let w2 = Gc.minor_words () in
    let t2 = now () in
    let out = run_call c tb ep in
    let t3 = now () in
    let w3 = Gc.minor_words () in
    let g1 = Gc.quick_stat () in
    let counters =
      List.map
        (fun (k, v) ->
          (k, jnum (v -. Option.value ~default:0.0 (List.assoc_opt k before))))
        (layer_counters eng)
    in
    jobj
      [ ("id", jstr c.c_id); ("mode", jstr (mode_id c.c_mode));
        ("call", jstr (match c.c_call with Stream -> "tcp_stream" | Rr -> "udp_rr"));
        ("start", jnum t0); ("deploy_s", jnum (t1 -. t0));
        ("deploy_words", jnum (w1 -. w0)); ("call_start", jnum t2);
        ("call_s", jnum (t3 -. t2)); ("call_words", jnum (w3 -. w2));
        ("events", jint (Engine.events_processed eng - e0));
        ("ops", jint (outcome_ops out)); ("digest", jstr (outcome_digest out));
        ("counters", jobj counters); ("gc", gc_json g0 g1);
        ( "profile",
          jlist
            (List.map
               (fun (label, n, secs) -> jlist [ jstr label; jint n; jnum secs ])
               (Engine.profile eng)) ) ]
  with e -> cell_error c.c_id e

(* The fleet builds and deploys its testbeds inside [summarize]; its
   engines are not reachable from here, so the cell reports the summary
   books instead of testbed counters. *)
let fleet_cell ~workload ~seed ~shards ~domains =
  try
    let params = fleet_params ~seed workload in
    let g0 = Gc.quick_stat () in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let s = Fig_fleet.summarize ~params ~shards ~domains ~quick:false () in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let g1 = Gc.quick_stat () in
    jobj
      [ ("id", jstr "fleet"); ("mode", jstr "fleet"); ("call", jstr "summarize");
        ("start", jnum t0); ("deploy_s", "0"); ("deploy_words", "0");
        ("call_start", jnum t0); ("call_s", jnum (t1 -. t0));
        ("call_words", jnum (w1 -. w0)); ("events", "0");
        ("ops", jint s.s_completed); ("digest", jstr (summary_digest s));
        ( "books",
          jobj
            [ ("offered", jint s.s_offered); ("shed", jint s.s_shed);
              ("lost", jint s.s_lost); ("completed", jint s.s_completed);
              ("pods", jint s.s_pods); ("scale_events", jint s.s_scale_events) ]
        );
        ("counters", "{}"); ("gc", gc_json g0 g1); ("profile", "[]");
        ("shards", jint shards); ("domains", jint domains) ]
  with e -> cell_error "fleet" e

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    else find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)
(* Isolated layer kernels, timed from outside through public calls.    *)

let kernel_reps = 5

(* Median ns per operation over [kernel_reps] repetitions of [f], which
   returns its operation count. *)
let ns_per_op f =
  median
    (List.init kernel_reps (fun _ ->
         let t0 = now () in
         let n = f () in
         (now () -. t0) *. 1e9 /. float_of_int n))

(* Engine.schedule/run with empty thunks, 1000 events per engine. *)
let kernel_engine () =
  let batches = 200 in
  let run () =
    for _ = 1 to batches do
      let e = Engine.create () in
      for i = 1 to 1_000 do
        Engine.schedule e ~delay:i ignore
      done;
      Engine.run e
    done;
    batches * 1_000
  in
  let ns = ns_per_op run in
  let w0 = Gc.minor_words () in
  let n = run () in
  [ ("sim.kernel.event_ns", ns);
    ("sim.kernel.event_words", (Gc.minor_words () -. w0) /. float_of_int n) ]

(* Two shards bouncing one message over a pair of 1 us links, on one
   domain. *)
let kernel_sharded () =
  let rounds = 20_000 in
  let nulls = ref 0 and delivered = ref 0 in
  let run () =
    let sd = Sharded.create ~seed:7L ~shards:2 () in
    let la = Time.us 1 in
    let ab = Sharded.link sd ~src:0 ~dst:1 ~lookahead:la ()
    and ba = Sharded.link sd ~src:1 ~dst:0 ~lookahead:la () in
    let count = ref 0 in
    let rec ping () =
      incr count;
      if !count < rounds then Sharded.send sd ab ~delay:la pong
    and pong () =
      incr count;
      if !count < rounds then Sharded.send sd ba ~delay:la ping
    in
    Engine.schedule (Sharded.engine sd 0) ~delay:0 ping;
    Sharded.run ~until:((rounds + 2) * la) ~domains:1 sd;
    let st = Sharded.stats sd in
    delivered := Array.fold_left (fun a s -> a + s.Sharded.ss_delivered) 0 st;
    nulls := Array.fold_left (fun a s -> a + s.Sharded.ss_null) 0 st;
    max 1 !delivered
  in
  let ns = ns_per_op run in
  [ ("sim.kernel.sharded_delivery_ns", ns);
    ( "sim.kernel.null_per_delivery",
      float_of_int !nulls /. float_of_int (max 1 !delivered) ) ]

(* An open-loop generator against a stub dispatcher that completes every
   request 10 us later. *)
let kernel_loadgen admission =
  ns_per_op (fun () ->
      let engine = Engine.create () in
      let g = ref None in
      let gen =
        Loadgen.create ~engine
          ~arrival:(Nest_loadgen.Arrival.constant ~rate_per_s:200_000.0)
          ~sizes:(Nest_loadgen.Size_dist.Fixed 64) ~rng:(Prng.create 7L)
          ?admission ~burn_source:(fun () -> 0.5)
          ~dispatch:(fun ~seq ~size:_ ->
            Engine.schedule engine ~delay:(Time.us 10) (fun () ->
                Loadgen.complete (Option.get !g) ~seq))
          ~start:(Time.ms 1) ~stop:(Time.ms 101) ()
      in
      g := Some gen;
      Engine.run engine;
      max 1 (Loadgen.counts gen).Loadgen.offered)

(* 256 flows, 100 rounds: the first round binds, the rest translate. *)
let kernel_snat () =
  let open Nest_net in
  let nat_ip = Ipv4.of_string "10.0.0.1" in
  let pkts =
    Array.init 256 (fun i ->
        Packet.make
          ~src:(Ipv4.of_int (0x0a000000 + i + 2))
          ~dst:(Ipv4.of_string "10.0.1.2")
          (Packet.Udp
             { src_port = 1000 + i; dst_port = 53; payload = Payload.raw 64 }))
  in
  let rounds = 100 in
  ns_per_op (fun () ->
      let ct = Conntrack.create () in
      for _ = 1 to rounds do
        Array.iter (fun p -> ignore (Conntrack.snat ct p ~to_ip:nat_ip)) pkts
      done;
      rounds * Array.length pkts)

let kernel_hdr () =
  let rng = Prng.create 11L in
  let xs = Array.init 4096 (fun _ -> exp (Prng.range_float rng 0.0 12.0)) in
  let n = 1_000_000 in
  ns_per_op (fun () ->
      let h = Hdr.create () in
      for i = 0 to n - 1 do
        Hdr.add h xs.(i land 4095)
      done;
      n)

let kernels () =
  kernel_engine () @ kernel_sharded ()
  @ [ ("sim.kernel.hdr_record_ns", kernel_hdr ());
      ("net.kernel.snat_ns", kernel_snat ());
      ("loadgen.kernel.arrival_ns.fixed", kernel_loadgen None);
      ( "loadgen.kernel.arrival_ns.burn",
        kernel_loadgen (Some (Admission.burn ~window:(Time.ms 1) ())) ) ]

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and traced = ref false
  and shards = ref 0 and domains = ref 0 and kernels_only = ref false in
  let usage =
    "main.exe --workload W --seed N [--traced] [--shards S] [--domains D]\n\
     main.exe --kernels"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "W netperf-single|netperf-pair|fleet|fleet-overload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--traced", Arg.Set traced, " profile the engines during the calls");
      ("--shards", Arg.Set_int shards, "S fleet shards (default: measured split)");
      ("--domains", Arg.Set_int domains, "D fleet domains (default: measured split)");
      ("--kernels", Arg.Set kernels_only, " run the isolated layer kernels") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !kernels_only then
    print_endline (jobj (List.map (fun (k, v) -> (k, jnum v)) (kernels ())))
  else begin
    let seed = !seed in
    let ready = now () in
    let cells =
      match !workload with
      | "netperf-single" ->
        List.map (netperf_cell ~seed ~traced:!traced) single_cells
      | "netperf-pair" -> List.map (netperf_cell ~seed ~traced:!traced) pair_cells
      | ("fleet" | "fleet-overload") as w ->
        let s, d = fleet_split w in
        let pick v def = if v > 0 then v else def in
        [ fleet_cell ~workload:w ~seed ~shards:(pick !shards s)
            ~domains:(pick !domains d) ]
      | w ->
        prerr_endline ("main.exe: unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
    in
    print_endline
      (jobj
         [ ("ready", jnum ready); ("peak_rss_mb", jnum (peak_rss_mb ()));
           ("cells", jlist cells) ])
  end
