module IpSet = Set.Make (struct
  type t = Ipv4.t

  let compare = Ipv4.compare
end)

type t = {
  pool : Ipv4.cidr;
  reserved : IpSet.t;
  mutable allocated : IpSet.t;
  size : int;
}

let create ?(reserved = []) pool =
  let size = 1 lsl (32 - pool.Ipv4.prefix) in
  let always =
    if pool.Ipv4.prefix >= 31 then []
    else [ Ipv4.network pool; Ipv4.broadcast_addr pool ]
  in
  { pool;
    reserved = IpSet.of_list (always @ reserved);
    allocated = IpSet.empty;
    size }

let capacity t = t.size - IpSet.cardinal t.reserved
let in_use t = IpSet.cardinal t.allocated

let alloc t =
  if in_use t >= capacity t then failwith "Ipam.alloc: pool exhausted";
  (* Lowest-free allocation (the documented contract, and what Docker's
     IPAM does): scan from the base; freed addresses are reused first. *)
  let rec find i =
    if i >= t.size then failwith "Ipam.alloc: pool exhausted"
    else begin
      let ip = Ipv4.host t.pool i in
      if IpSet.mem ip t.reserved || IpSet.mem ip t.allocated then find (i + 1)
      else begin
        t.allocated <- IpSet.add ip t.allocated;
        ip
      end
    end
  in
  find 0

let free t ip =
  if not (IpSet.mem ip t.allocated) then
    invalid_arg ("Ipam.free: not allocated: " ^ Ipv4.to_string ip);
  t.allocated <- IpSet.remove ip t.allocated

