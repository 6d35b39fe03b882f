(* Conservative sharded event loops (null-message synchronization).

   Each shard is a plain {!Engine.t}; cross-shard traffic rides
   per-link timestamped mailboxes whose [lookahead] lower-bounds every
   message delay.  A shard executes work strictly earlier than

     safe = min over inbound links (publish(src) + lookahead)

   where [publish(src)] is the source shard's broadcast clock floor — a
   lower bound on the date of anything it will still execute (and hence,
   + lookahead, on anything it will still send).  A shard with nothing
   executable under [safe] publishes [min (next candidate, safe)]
   instead (the null message); with positive lookahead that fixpoint
   strictly climbs, so the system cannot deadlock.

   Determinism does not depend on scheduling: shards own disjoint state,
   a message's delivery date is fixed at send time, and the executable
   set below [safe] is stable (any concurrent send lands at or beyond
   [safe] — see the ordering argument at [send]).  Per shard, work
   executes in (date, deliveries-before-local, link key, per-link send
   order / wheel seq) order no matter how many domains pump, so
   [shards=N, domains=D] is byte-identical to [shards=N, domains=1].

   [run] is one horizon loop for any domain count: each domain pumps a
   fixed subset of shards until all of them reach the horizon.
   Single-writer discipline: a shard is only ever pumped by one domain
   (static assignment in [run]); its publish cell has one writer, so
   plain read-after-read on the Atomic is race-free.
   Mailboxes are the only shared mutable state and sit under a mutex;
   the [l_head] date hint is re-published atomically after every
   push/pop so peeking the head of all inbound links costs one atomic
   load each, no locks. *)

type link = {
  l_src : int;
  l_dst : int;
  l_key : int;                     (* creation order: delivery tie-break *)
  l_lookahead : int;
  l_label : string;
  l_src_pub : int Atomic.t;        (* the source shard's publish cell *)
  l_mu : Mutex.t;
  l_box : (unit -> unit) Heap.t;   (* prio = delivery date; FIFO per link *)
  l_head : int Atomic.t;           (* earliest pending date; max_int = empty *)
  mutable l_sent : int;            (* written by the source shard only *)
}

type shard = {
  sh_ix : int;
  sh_engine : Engine.t;
  mutable sh_inbound : link array; (* ascending l_key *)
  (* Result of the last [delivery_head] scan: the earliest pending date
     ([max_int] when every mailbox was empty) and its link's index in
     [sh_inbound].  Fields rather than a returned pair so the scan
     allocates nothing. *)
  mutable sh_head_at : int;
  mutable sh_head_ix : int;
  sh_publish : int Atomic.t;
  mutable sh_done : bool;          (* reached the current run's horizon *)
  mutable sh_was_blocked : bool;   (* edge detector: count blocked episodes *)
  (* Cumulative imbalance counters (see {!stats}). *)
  mutable sh_delivered : int;
  mutable sh_blocked : int;
  mutable sh_null : int;
}

type t = { sd_shards : shard array; mutable sd_links : int }

let golden = 0x9E3779B97F4A7C15L

let create ?(seed = 0x5EEDL) ~shards () =
  if shards <= 0 then invalid_arg "Sharded.create: shards must be > 0";
  let mk i =
    (* Shard 0 keeps the root seed, so a single-node scenario placed on
       shard 0 draws exactly what it would from a plain [Engine.create
       ~seed] — the shards=1 ≡ shards=N digest checks rely on this.
       Other sub-engine seeds only have to be distinct and deterministic;
       scenario streams that must survive re-partitioning are split from
       per-node seeds, not from these. *)
    let s =
      if i = 0 then seed
      else Int64.add seed (Int64.mul golden (Int64.of_int i))
    in
    {
      sh_ix = i;
      sh_engine = Engine.create ~seed:s ();
      sh_inbound = [||];
      sh_head_at = max_int;
      sh_head_ix = -1;
      sh_publish = Atomic.make 0;
      sh_done = false;
      sh_was_blocked = false;
      sh_delivered = 0;
      sh_blocked = 0;
      sh_null = 0;
    }
  in
  { sd_shards = Array.init shards mk; sd_links = 0 }

let shards t = Array.length t.sd_shards

let engine t i =
  if i < 0 || i >= Array.length t.sd_shards then
    invalid_arg "Sharded.engine: shard index out of range";
  t.sd_shards.(i).sh_engine

let link t ~src ~dst ~lookahead ?(label = "") () =
  let n = Array.length t.sd_shards in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Sharded.link: shard index out of range";
  if lookahead <= 0 then
    invalid_arg
      "Sharded.link: lookahead must be > 0 (a zero-lookahead link cannot \
       be synchronized conservatively and would deadlock)";
  let l =
    {
      l_src = src;
      l_dst = dst;
      l_key = t.sd_links;
      l_lookahead = lookahead;
      l_label = label;
      l_src_pub = t.sd_shards.(src).sh_publish;
      l_mu = Mutex.create ();
      l_box = Heap.create ();
      l_head = Atomic.make max_int;
      l_sent = 0;
    }
  in
  t.sd_links <- t.sd_links + 1;
  let d = t.sd_shards.(dst) in
  (* Keys only grow, so appending keeps inbound ascending by creation
     key and a plain scan breaks equal-date delivery ties toward the
     oldest link. *)
  d.sh_inbound <- Array.append d.sh_inbound [| l |];
  l

(* Why a concurrent send can never undercut a receiver's [safe]: the
   receiver read [publish(src) = P] and uses [safe = P + lookahead].
   Any push it can subsequently observe was made while the source's
   clock was >= P (publish trails the clock from below), so its delivery
   date is >= P + delay >= P + lookahead = safe — and the receiver only
   executes strictly below [safe].  Pushes made before publish reached P
   are made visible by the SC atomics + mailbox mutex: the receiver
   reads publishes first, head hints second.

   The same bound lets [pump] keep the delivery head it scanned on entry
   (or after its last pop) across local events.  A local event on the
   receiver can only push into its own mailboxes through a self-link,
   at >= now + lookahead >= publish(self) + lookahead >= safe; a push
   from another domain lands at >= safe as argued above; and only the
   receiver pops its mailboxes.  So the cached head equals the true one
   whenever either is below [safe], and a stale pick can only be late
   for a message this pump would not execute anyway. *)
let send t l ~delay fn =
  if delay < l.l_lookahead then
    invalid_arg "Sharded.send: delay below the link's declared lookahead";
  let at = Engine.now t.sd_shards.(l.l_src).sh_engine + delay in
  Mutex.lock l.l_mu;
  Heap.push l.l_box ~prio:at fn;
  (match Heap.peek_prio l.l_box with
  | Some p -> Atomic.set l.l_head p
  | None -> assert false);
  Mutex.unlock l.l_mu;
  l.l_sent <- l.l_sent + 1

let pop_delivery l =
  Mutex.lock l.l_mu;
  let r = Heap.pop l.l_box in
  (match Heap.peek_prio l.l_box with
  | Some p -> Atomic.set l.l_head p
  | None -> Atomic.set l.l_head max_int);
  Mutex.unlock l.l_mu;
  match r with Some (_, fn) -> fn | None -> assert false

let inbound_safe s =
  let inbound = s.sh_inbound in
  let safe = ref max_int in
  for i = 0 to Array.length inbound - 1 do
    let l = inbound.(i) in
    let v = Atomic.get l.l_src_pub + l.l_lookahead in
    if v < !safe then safe := v
  done;
  !safe

(* Earliest pending delivery into [sh_head_at]/[sh_head_ix], equal dates
   resolving to the lowest creation key (the inbound array is
   key-ascending and the scan uses strict [<]).  [max_int, -1] when
   every mailbox is empty. *)
let delivery_head s =
  let inbound = s.sh_inbound in
  let best = ref max_int and best_ix = ref (-1) in
  for i = 0 to Array.length inbound - 1 do
    let h = Atomic.get inbound.(i).l_head in
    if h < !best then begin
      best := h;
      best_ix := i
    end
  done;
  s.sh_head_at <- !best;
  s.sh_head_ix <- !best_ix

(* Only the owning domain writes a shard's publish cell, so the
   read-then-set below is single-writer and needs no CAS. *)
let publish_floor s v =
  if v > Atomic.get s.sh_publish then Atomic.set s.sh_publish v

let wheel_next e = match Engine.next_at e with Some a -> a | None -> max_int

(* Executes everything currently provable-safe on [s], then either
   declares the shard done for this horizon or broadcasts its clock
   floor.  Returns true when an event ran or the published floor
   advanced (progress another shard can observe). *)
let pump s ~horizon =
  let progress = ref false in
  let safe = inbound_safe s in
  (* Scanned once here and again only after a pop: see [send] for why a
     head cached across local events is never wrong below [safe]. *)
  delivery_head s;
  let running = ref true in
  while !running do
    running := false;
    let da = s.sh_head_at in
    let wa = wheel_next s.sh_engine in
    (* Deliveries beat local events on equal dates. *)
    if da <= wa then begin
      if da < safe && da <= horizon then begin
        let l = s.sh_inbound.(s.sh_head_ix) in
        let fn = pop_delivery l in
        Engine.run_external s.sh_engine ~at:da ~label:l.l_label fn;
        s.sh_delivered <- s.sh_delivered + 1;
        publish_floor s (Engine.now s.sh_engine);
        delivery_head s;
        progress := true;
        running := true
      end
    end
    else if wa < safe && wa <= horizon then begin
      ignore (Engine.step s.sh_engine);
      publish_floor s (Engine.now s.sh_engine);
      progress := true;
      running := true
    end
  done;
  (* Nothing executable under [safe]. *)
  let cand = Int.min s.sh_head_at (wheel_next s.sh_engine) in
  let bound = Int.min cand safe in
  if bound > horizon then begin
    (* Both the local candidate and every possible future inbound
       delivery lie beyond the horizon: this shard is finished, and
       (because future sends to it arrive at >= safe > horizon) its
       mailboxes can no longer grow below the horizon either. *)
    Engine.advance_to s.sh_engine horizon;
    publish_floor s (horizon + 1);
    s.sh_done <- true
  end
  else begin
    (* Blocked on lookahead: broadcast the clock floor (null message) so
       neighbours waiting on us can advance past our idle links. *)
    if bound > Atomic.get s.sh_publish then begin
      Atomic.set s.sh_publish bound;
      s.sh_null <- s.sh_null + 1;
      s.sh_was_blocked <- false;
      progress := true
    end
    else begin
      (* Counted per episode, not per poll: a parallel pump spins here
         via [cpu_relax] until a neighbour publishes. *)
      if not s.sh_was_blocked then s.sh_blocked <- s.sh_blocked + 1;
      s.sh_was_blocked <- true
    end
  end;
  !progress

let reset_run t =
  Array.iter
    (fun s ->
      s.sh_done <- false;
      Atomic.set s.sh_publish (Engine.now s.sh_engine))
    t.sd_shards

(* Shard i is pumped only by domain [i mod domains], in ascending index
   order, so with one domain the loop visits shards exactly as a plain
   round-robin would. *)
let run ~until:horizon ?(domains = 1) t =
  reset_run t;
  let nshards = Array.length t.sd_shards in
  let domains = Int.max 1 (Int.min domains nshards) in
  let worker d () =
    let mine =
      List.filter (fun s -> s.sh_ix mod domains = d) (Array.to_list t.sd_shards)
    in
    let all_done = ref false in
    let idle = ref 0 in
    while not !all_done do
      let progress = ref false and dn = ref true in
      List.iter
        (fun s ->
          if not s.sh_done then begin
            if pump s ~horizon then progress := true;
            if not s.sh_done then dn := false
          end)
        mine;
      all_done := !dn;
      if (not !all_done) && not !progress then begin
        (* With one domain nothing else can publish: unreachable with
           positive lookahead, since the minimal blocked bound always
           advances some publish.  Fail loudly rather than spin. *)
        if domains = 1 then
          failwith "Sharded.run: no shard can make progress (deadlock)";
        (* Our shards are waiting on another domain's publishes.  Spin
           briefly — a working neighbour usually publishes within a few
           polls — then back off to real sleeps so oversubscribed hosts
           (domains > cores) yield the core to the domain being waited
           on instead of burning its timeslice busy-polling. *)
        incr idle;
        if !idle <= 200 then Domain.cpu_relax ()
        else Unix.sleepf (Float.min 1e-4 (float_of_int (!idle - 200) *. 1e-6))
      end
      else idle := 0
    done
  in
  let others = List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join others

type shard_stats = {
  ss_shard : int;
  ss_clock : Time.ns;
  ss_events : int;
  ss_delivered : int;
  ss_blocked : int;
  ss_null : int;
  ss_pending : int;
}

let stats t =
  Array.map
    (fun s ->
      let boxed =
        Array.fold_left
          (fun acc l ->
            Mutex.lock l.l_mu;
            let n = Heap.size l.l_box in
            Mutex.unlock l.l_mu;
            acc + n)
          0 s.sh_inbound
      in
      {
        ss_shard = s.sh_ix;
        ss_clock = Engine.now s.sh_engine;
        ss_events = Engine.events_processed s.sh_engine;
        ss_delivered = s.sh_delivered;
        ss_blocked = s.sh_blocked;
        ss_null = s.sh_null;
        ss_pending = Engine.pending s.sh_engine + boxed;
      })
    t.sd_shards
