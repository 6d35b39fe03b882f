(** Deterministic exponential backoff for orchestrator retries.

    No jitter by design: a seeded fault-injection run must yield the
    same retry timeline every time, including under [--jobs N]. *)

type policy = {
  base_ns : Nest_sim.Time.ns;
  multiplier : float;
  max_delay_ns : Nest_sim.Time.ns;
  max_attempts : int;
}

val default : policy
(** 100 ms base, doubling, capped at 3.2 s, 6 attempts. *)

val retry :
  Nest_sim.Engine.t ->
  policy ->
  ?on_retry:(attempt:int -> delay_ns:Nest_sim.Time.ns -> unit) ->
  (attempt:int -> k:(('a, string) result -> unit) -> unit) ->
  k:(('a, string) result -> unit) ->
  unit
(** [retry engine p op ~k] issues [op ~attempt:1] and re-issues after
    each [Error] with the policy's delay until success or
    [max_attempts], then passes the final result to [k].  [op] must
    call its continuation exactly once per issue. *)
