(** Ablation benches for the design choices DESIGN.md calls out.

    None of these reproduce a paper figure; they perturb one mechanism at
    a time to show which part of the model carries each result. *)

val guest_factor : quick:bool -> unit
(** Sweeps the guest-kernel cost factor: the NAT-vs-NoCont gap should
    widen with it (nested virtualization pays the guest factor twice). *)

val chain_length : quick:bool -> unit
(** Sweeps extra iptables rules in the VM: NAT throughput must degrade
    with chain length while BrFusion — whose pod pays no in-VM hooks —
    stays flat. *)

val hostlo_fanout : quick:bool -> unit
(** Splits one pod across 2..4 VMs sharing one Hostlo tap: reflection
    fans every frame to all queues, so per-pair latency and host CPU grow
    with fraction count. *)

val packing_policy : quick:bool -> unit
(** Compares the whole-pod baseline under most-requested (the paper's),
    least-requested and first-fit placement: consolidation is what keeps
    the baseline competitive, shrinking Hostlo's relative savings. *)

