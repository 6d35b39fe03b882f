(** CPU-time accounting by (entity, category), mirroring the paper's CPU
    breakdowns (Figs. 6, 7, 14, 15).

    Entities are free-form names ("vm1", "host", "memcached-server", ...).
    Categories follow the paper's taxonomy: [usr] application work, [sys]
    kernel work excluding interrupts, [soft] kernel servicing software
    interrupts (where netfilter NAT hooks run), [guest] host CPU time given
    to a guest VM, [irq] hardware interrupt service. *)

type category = Usr | Sys | Soft | Guest | Irq

val category_to_string : category -> string
val all_categories : category list

val category_index : category -> int
(** Stable dense index in [0, 4], in {!all_categories} order. *)

type t

val create : unit -> t
val charge : t -> entity:string -> category -> Time.ns -> unit

val row : t -> entity:string -> int array
(** The live counters of [entity], indexed by {!category_index},
    created (all zero) on first use.  Adding [ns] at index [i] is the
    same as {!charge}; the row stays valid across {!reset}.  Per-event
    callers ({!Exec}) resolve it once instead of hashing the entity
    name on every charge. *)

val get : t -> entity:string -> category -> Time.ns
(** 0 for unknown entities. *)

val entity_total : t -> entity:string -> Time.ns
val entities : t -> string list
(** Sorted, deduplicated. *)

val reset : t -> unit
(** Zeroes all counters in place (used to discard warmup).  Entities
    charged before the reset stay listed, reading 0. *)

val snapshot : t -> (string * (category * Time.ns) list) list
(** Sorted by entity, each with all five categories. *)

val cores : t -> entity:string -> category -> window:Time.ns -> float
(** Average number of busy cores over an observation window:
    charged-ns / window. *)

