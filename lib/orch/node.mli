(** A cluster node: one VM running a kubelet agent and a container
    engine.  Tracks requested resources for the scheduler. *)

type t

type agent = { mutable configured : int }
(** The node agent's books (see {!Kubelet}): NICs configured.  They live
    on the node so the agent needs no registry. *)

val create : Nest_virt.Vm.t -> t
(** Capacity is the VM's vCPU count and memory. *)

val vm : t -> Nest_virt.Vm.t
val docker : t -> Nest_container.Engine.t
val name : t -> string
val agent : t -> agent

val cpu_capacity : t -> float
val mem_capacity : t -> float
val cpu_requested : t -> float
val mem_requested : t -> float

val set_ready : t -> bool -> unit

val fits : t -> cpu:float -> mem:float -> bool
(** False for not-ready nodes, so the scheduler skips them. *)

val reserve : t -> cpu:float -> mem:float -> unit
(** Raises [Invalid_argument] when it would overcommit. *)

val release : t -> cpu:float -> mem:float -> unit

val requested_fraction : t -> float
(** Mean of cpu and memory requested fractions — the score of
    Kubernetes's "most requested" policy. *)
