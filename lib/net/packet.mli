(** IPv4 packets. *)

type transport =
  | Udp of { src_port : int; dst_port : int; payload : Payload.t }
  | Tcp of { seg : Tcp_wire.t; payload : Payload.t }
      (** [payload.size] must equal [seg.len]. *)
  | Icmp_echo of { id : int; seq : int; reply : bool }

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  ttl : int;
  transport : transport;
  trace : string list ref option;
      (** Hop names in reverse traversal order when tracing.  The ref is
          shared across NAT rewrites and re-framing at each L3 hop, so a
          packet's full end-to-end path is observable (see
          {!Frame.record_hop}). *)
  prov : Nest_sim.Provenance.t option;
      (** Latency-provenance record, shared the same way as [trace]:
          every hop that services the packet appends timed attribution
          (see [Hop.service_prov]). *)
}

val make :
  ?traced:bool -> ?prov:Nest_sim.Provenance.t -> src:Ipv4.t -> dst:Ipv4.t ->
  transport -> t
(** TTL defaults to 64; [traced] (default false) attaches a hop trace;
    [prov] attaches a latency-provenance record. *)

val prov : t -> Nest_sim.Provenance.t option

val hops : t -> string list
(** Hops in traversal order; [] when untraced. *)

val record_hop : t -> string -> unit
(** Appends a hop name to the packet's trace; no-op when untraced.  Used
    by devices that transform rather than re-frame the packet (e.g. NAT
    rule hits, which have no {!Frame.t} in hand). *)

val len : t -> int
(** Total IP length: 20-byte IP header + transport header + payload. *)

val ports : t -> (int * int) option
(** (src_port, dst_port) for UDP/TCP, [None] for ICMP. *)

val with_addrs : ?src:Ipv4.t -> ?dst:Ipv4.t -> t -> t
val with_ports : ?src_port:int -> ?dst_port:int -> t -> t
(** Rewrites transport ports (NAT); ICMP packets are returned unchanged. *)

val decrement_ttl : t -> t option
(** [None] once the TTL would reach 0 (packet must be dropped). *)

val pp : Format.formatter -> t -> unit
