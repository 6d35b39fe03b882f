(** IP address allocation from a CIDR pool (what Docker's libnetwork and a
    CNI IPAM plugin do for container subnets). *)

type t

val create : ?reserved:Ipv4.t list -> Ipv4.cidr -> t
(** The network and broadcast addresses are always reserved; [reserved]
    adds more (typically the gateway). *)

val alloc : t -> Ipv4.t
(** Lowest free address.  Raises [Failure] when the pool is exhausted. *)

val free : t -> Ipv4.t -> unit
(** Raises [Invalid_argument] if the address is not currently allocated
    from this pool. *)

val in_use : t -> int
val capacity : t -> int
