type entry = {
  dst : Ipv4.cidr;
  gateway : Ipv4.t option;
  dev : Dev.t;
  src : Ipv4.t option;
}

type t = { mutable routes : entry list }

let create () = { routes = [] }

let add t ~dst ~dev ?gateway ?src () =
  t.routes <- { dst; gateway; dev; src } :: t.routes

let add_default t ~gateway ~dev ?src () =
  add t ~dst:(Ipv4.cidr_of_string "0.0.0.0/0") ~dev ~gateway ?src ()

let lookup t ip =
  let best = ref None in
  let consider e =
    if Ipv4.in_subnet e.dst ip then
      match !best with
      | Some b when b.dst.Ipv4.prefix >= e.dst.Ipv4.prefix -> ()
      | Some _ | None -> best := Some e
  in
  (* [routes] is most-recent-first; keeping the incumbent on equal
     prefixes therefore makes the most recent entry win. *)
  List.iter consider t.routes;
  !best

let next_hop e ip = match e.gateway with Some gw -> gw | None -> ip

let remove_dev t dev =
  t.routes <- List.filter (fun e -> e.dev != dev) t.routes
