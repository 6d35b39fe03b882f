(** Fixed-size domain pool for embarrassingly parallel fan-out.

    The simulator itself is strictly single-threaded — an {!Engine} and
    everything scheduled on it must stay on one domain.  What {e is}
    parallel is the experiment harness: independent cells (one testbed +
    workload each) share no mutable state and can run on separate
    domains.  The harness spawns its domains here; the only other place
    the repository spawns domains is {!Sharded.run}, which pumps one
    engine's shards from several. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed by up to [jobs] domains
    (the caller participates, so [jobs - 1] are spawned).  Order is
    preserved.  [jobs <= 1] degrades to plain [List.map] with no domain
    machinery.  If any application of [f] raises, the first such
    exception (in input order) is re-raised with its backtrace after all
    domains have joined.

    [f] must not touch domain-unsafe shared state; engines, testbeds and
    workloads created {e inside} [f] are safe because each cell owns its
    world. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: a sensible [~jobs] default. *)
