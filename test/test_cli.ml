(* Exit codes and output of the nestsim binary on bad input: usage errors
   are Cmdliner parse errors (exit 124) raised before any experiment
   runs; a trace file that parses as a file but not as a trace exits 1. *)

let exe = "../bin/nestsim.exe"

(* Runs nestsim with [args]; returns (exit code, stdout, stderr). *)
let nestsim args =
  let out = Filename.temp_file "nestsim" ".out" in
  let err = Filename.temp_file "nestsim" ".err" in
  let code =
    Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err)
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let r = (code, read out, read err) in
  Sys.remove out;
  Sys.remove err;
  r

let check_usage_error name args =
  let code, out, _ = nestsim args in
  Alcotest.(check int) (name ^ ": exit") 124 code;
  Alcotest.(check string) (name ^ ": stdout") "" out

let test_unknown_id () =
  check_usage_error "run" [ "run"; "bogus" ];
  (* The valid id in front must not run either. *)
  check_usage_error "run after valid" [ "run"; "table1"; "bogus" ];
  check_usage_error "obs run" [ "obs"; "run"; "table1"; "bogus" ]

let test_trace_users () =
  check_usage_error "users 0" [ "trace"; "gen"; "--users=0" ];
  check_usage_error "users -3" [ "trace"; "gen"; "--users=-3" ]

let test_trace_missing_file () =
  check_usage_error "missing" [ "trace"; "stats"; "no-such-trace.csv" ];
  check_usage_error "no file" [ "trace"; "stats" ]

let test_trace_malformed () =
  let f = Filename.temp_file "trace" ".csv" in
  Out_channel.with_open_bin f (fun oc ->
      output_string oc "user,pod,container,cpu,mem\n1,0,0,0.1,0.1\nnot,a,row\n");
  let code, out, err = nestsim [ "trace"; "stats"; f ] in
  Sys.remove f;
  Alcotest.(check int) "exit" 1 code;
  Alcotest.(check string) "stdout" "" out;
  Alcotest.(check int) "one line" 1
    (List.length (String.split_on_char '\n' (String.trim err)));
  Alcotest.(check bool) "names the row" true
    (Astring.String.is_infix ~affix:"not,a,row" err)

let test_trace_round_trip () =
  let f = Filename.temp_file "trace" ".csv" in
  let code, _, _ = nestsim [ "trace"; "gen"; "--users"; "3"; "--out"; f ] in
  Alcotest.(check int) "gen exit" 0 code;
  let code, out, _ = nestsim [ "trace"; "stats"; f ] in
  Sys.remove f;
  Alcotest.(check int) "stats exit" 0 code;
  Alcotest.(check bool) "users: 3" true
    (List.mem "users: 3" (String.split_on_char '\n' out))

let () =
  Alcotest.run "cli"
    [ ( "exit codes",
        [ Alcotest.test_case "unknown experiment id" `Quick test_unknown_id;
          Alcotest.test_case "trace gen users" `Quick test_trace_users;
          Alcotest.test_case "trace stats missing file" `Quick
            test_trace_missing_file;
          Alcotest.test_case "trace stats malformed row" `Quick
            test_trace_malformed;
          Alcotest.test_case "trace gen then stats" `Quick
            test_trace_round_trip ] ) ]
