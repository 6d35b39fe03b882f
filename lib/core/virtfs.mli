(** VirtFS (Jujiuri et al., §4.3.1): a para-virtualized filesystem whose
    host-side server lets the *same* directory tree be mounted into
    several guests without the cache-coherence corruption a shared block
    device would cause — the mechanism the paper designates for volumes
    of cross-VM pods.

    State lives host-side (one authoritative tree per share), so a write
    through any mount is immediately visible through every other: the
    consistency property §4.3.1 needs.  Every operation pays a 9p-style
    round trip (guest request, host server work, guest completion). *)

type t
type mount

val share : Nest_virt.Host.t -> name:string -> t

val mount : t -> Nest_virt.Vm.t -> mount
(** One mount per guest; mounting twice returns a second handle onto the
    same share. *)

val write :
  mount -> path:string -> data:string -> k:(unit -> unit) -> unit
(** Creates or truncates [path]; cost scales with [data] length. *)

val append :
  mount -> path:string -> data:string -> k:(unit -> unit) -> unit

val read : mount -> path:string -> k:(string option -> unit) -> unit

val exists : t -> path:string -> bool
val files : t -> (string * int) list
(** Sorted [(path, size)] listing. *)

val ops : t -> int
(** Total server operations (diagnostics). *)
