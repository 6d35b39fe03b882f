module Time = Nest_sim.Time

(* 9p operation costs: request marshalling in the guest, server work on
   the host (page-cache backed), completion back in the guest.  Transport
   notifications are pure delay, as for virtio-net. *)
let guest_op_ns = 1_200
let server_fixed_ns = 2_000
let server_per_byte_ns = 0.30
let transport_delay_ns = 3_000

type t = {
  host : Nest_virt.Host.t;
  server : Nest_sim.Exec.t;
  tree : (string, string) Hashtbl.t;
  mutable op_count : int;
}

type mount = { m_vm : Nest_virt.Vm.t; fs : t }

let share host ~name =
  { host;
    server = Nest_virt.Host.new_vhost_exec host ~name:("9pfs-" ^ name);
    tree = Hashtbl.create 16; op_count = 0 }

let mount t vm = { m_vm = vm; fs = t }

(* guest request -> transport -> server work -> transport -> guest k *)
let rpc m ~bytes ~action ~k =
  let t = m.fs in
  let engine = Nest_virt.Host.engine t.host in
  Nest_sim.Exec.submit (Nest_virt.Vm.sys_exec m.m_vm) ~cost:guest_op_ns
    (fun () ->
      Nest_sim.Engine.schedule engine ~delay:transport_delay_ns (fun () ->
          let cost =
            server_fixed_ns
            + int_of_float (server_per_byte_ns *. float_of_int bytes)
          in
          Nest_sim.Exec.submit t.server ~cost (fun () ->
              t.op_count <- t.op_count + 1;
              let result = action () in
              Nest_sim.Engine.schedule engine ~delay:transport_delay_ns
                (fun () ->
                  Nest_sim.Exec.submit
                    (Nest_virt.Vm.sys_exec m.m_vm)
                    ~cost:guest_op_ns
                    (fun () -> k result)))))

let write m ~path ~data ~k =
  rpc m ~bytes:(String.length data)
    ~action:(fun () -> Hashtbl.replace m.fs.tree path data)
    ~k:(fun () -> k ())

let append m ~path ~data ~k =
  rpc m ~bytes:(String.length data)
    ~action:(fun () ->
      let existing = Option.value (Hashtbl.find_opt m.fs.tree path) ~default:"" in
      Hashtbl.replace m.fs.tree path (existing ^ data))
    ~k:(fun () -> k ())

let read m ~path ~k =
  rpc m ~bytes:0 ~action:(fun () -> Hashtbl.find_opt m.fs.tree path) ~k

let exists t ~path = Hashtbl.mem t.tree path

let files t =
  Hashtbl.fold (fun p d acc -> (p, String.length d) :: acc) t.tree []
  |> List.sort compare

let ops t = t.op_count
