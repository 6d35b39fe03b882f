type entry = { port : Dev.t; mutable last_seen : Nest_sim.Time.ns }

type t = {
  engine : Nest_sim.Engine.t;
  br_name : string;
  hop : Hop.t;
  aging_ns : Nest_sim.Time.ns;
  self : Dev.t;
  mutable port_list : Dev.t list;
  fdb_tbl : (Mac.t, entry) Hashtbl.t;
  mutable forwarded : int;
  hop_ctr : Nest_sim.Metrics.counter;
  hop_site : Nest_sim.Engine.site;
}

let input t port frame =
  Frame.record_hop frame t.br_name;
  Nest_sim.Metrics.bump t.hop_ctr ();
  Nest_sim.Engine.trace_site t.engine t.hop_site;
  (* Source learning. *)
  if not (Mac.is_broadcast frame.Frame.src) then begin
    match Hashtbl.find_opt t.fdb_tbl frame.Frame.src with
    | Some e when e.port == port -> e.last_seen <- Nest_sim.Engine.now t.engine
    | Some _ | None ->
      Hashtbl.replace t.fdb_tbl frame.Frame.src
        { port; last_seen = Nest_sim.Engine.now t.engine }
  end;
  let deliver_self () = Dev.deliver t.self frame in
  let out p = Dev.transmit p frame in
  (* Flood/broadcast copies each take their own provenance branch so every
     egress accumulates only its own downstream hops. *)
  let out_branched p = Dev.transmit p (Frame.branch_prov frame) in
  let fresh e =
    Nest_sim.Engine.now t.engine - e.last_seen <= t.aging_ns
  in
  let forward () =
    t.forwarded <- t.forwarded + 1;
    if Mac.is_broadcast frame.Frame.dst then begin
      List.iter (fun p -> if p != port then out_branched p) t.port_list;
      if port != t.self then deliver_self ()
    end
    else if Mac.equal frame.Frame.dst t.self.Dev.mac then begin
      if port != t.self then deliver_self ()
    end
    else begin
      match Hashtbl.find_opt t.fdb_tbl frame.Frame.dst with
      | Some e when fresh e -> if e.port != port then out e.port
      | Some _ | None ->
        (* Unknown destination: flood. *)
        List.iter (fun p -> if p != port then out_branched p) t.port_list;
        if port != t.self && not (Mac.equal frame.Frame.dst t.self.Dev.mac)
        then ()
    end
  in
  Hop.service_prov ?prov:(Frame.prov frame) t.hop ~bytes:(Frame.len frame)
    forward

let create engine ~name ~hop ?(aging_ns = Nest_sim.Time.sec 300) ~self_mac () =
  Hop.set_name hop name;
  let self = Dev.create ~name:(name ^ "(self)") ~mac:self_mac () in
  let t =
    { engine; br_name = name; hop; aging_ns; self; port_list = [];
      fdb_tbl = Hashtbl.create 32; forwarded = 0;
      hop_ctr =
        Nest_sim.Metrics.counter (Nest_sim.Engine.metrics engine)
          ("hop." ^ name);
      hop_site = Nest_sim.Engine.site ~cat:"hop" ~name () }
  in
  (* Stack transmissions on the self device enter the switching plane. *)
  Dev.set_tx self (fun frame -> input t self frame);
  t

let name t = t.br_name
let self_dev t = t.self

let attach t dev =
  t.port_list <- t.port_list @ [ dev ];
  Dev.set_rx dev (fun frame -> input t dev frame)

let detach t dev =
  t.port_list <- List.filter (fun p -> p != dev) t.port_list;
  Dev.clear_rx dev;
  (* Drop any learning entries that point at the removed port. *)
  let stale =
    Hashtbl.fold
      (fun mac e acc -> if e.port == dev then mac :: acc else acc)
      t.fdb_tbl []
  in
  List.iter (Hashtbl.remove t.fdb_tbl) stale

let ports t = t.port_list

let fdb t =
  Hashtbl.fold
    (fun mac e acc ->
      if Nest_sim.Engine.now t.engine - e.last_seen <= t.aging_ns then
        (mac, e.port.Dev.name) :: acc
      else acc)
    t.fdb_tbl []
  |> List.sort compare

let forwarded t = t.forwarded
