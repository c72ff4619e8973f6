(* Text tables, CSV, plots and the JSON printer. *)

module Text_table = Dynvote_report.Text_table

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_render () =
  let t =
    Text_table.create ~aligns:[ Text_table.Left; Text_table.Right ]
      ~header:[ "Name"; "Value" ] ()
  in
  Text_table.add_row t [ "alpha"; "1" ];
  Text_table.add_row t [ "b"; "22.5" ];
  let s = Text_table.to_string t in
  Alcotest.(check bool) "header present" true (contains ~needle:"| Name" s);
  Alcotest.(check bool) "left aligned" true (contains ~needle:"| alpha |" s);
  Alcotest.(check bool) "right aligned" true (contains ~needle:"|  22.5 |" s);
  Alcotest.(check int) "rows" 2 (Text_table.n_rows t)

let test_row_validation () =
  let t = Text_table.create ~header:[ "a"; "b" ] () in
  Alcotest.check_raises "cell count"
    (Invalid_argument "Text_table.add_row: wrong number of cells") (fun () ->
      Text_table.add_row t [ "only one" ])

let test_markdown () =
  let t =
    Text_table.create ~aligns:[ Text_table.Left; Text_table.Right ] ~header:[ "k"; "v" ] ()
  in
  Text_table.add_row t [ "x"; "1" ];
  let s = Fmt.str "%a" Text_table.pp_markdown t in
  Alcotest.(check bool) "markdown header" true (contains ~needle:"| k | v |" s);
  Alcotest.(check bool) "alignment row" true (contains ~needle:"|:---|---:|" s)

let test_cells () =
  Alcotest.(check string) "float" "0.123457" (Text_table.cell_float 0.1234567);
  Alcotest.(check string) "float decimals" "0.12" (Text_table.cell_float ~decimals:2 0.1234);
  Alcotest.(check string) "nan renders dash" "-" (Text_table.cell_float Float.nan);
  Alcotest.(check string) "scientific" "1.23e-04" (Text_table.cell_sci 0.000123);
  Alcotest.(check string) "int" "42" (Text_table.cell_int 42)

module Csv = Dynvote_report.Csv

let test_csv_basic () =
  Alcotest.(check string) "simple"
    "a,b\r\n1,2\r\n"
    (Csv.to_string ~header:[ "a"; "b" ] [ [ "1"; "2" ] ])

let test_csv_quoting () =
  let out =
    Csv.to_string ~header:[ "name"; "note" ]
      [ [ "x,y"; "says \"hi\"" ]; [ "line\nbreak"; "plain" ] ]
  in
  Alcotest.(check bool) "comma quoted" true
    (String.length out > 0 && contains ~needle:"\"x,y\"" out);
  Alcotest.(check bool) "quote doubled" true (contains ~needle:"\"says \"\"hi\"\"\"" out);
  Alcotest.(check bool) "newline quoted" true (contains ~needle:"\"line\nbreak\"" out)

let test_csv_write_roundtrip () =
  let path = Filename.temp_file "dynvote" ".csv" in
  Csv.write ~path ~header:[ "k" ] [ [ "v1" ]; [ "v2" ] ];
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file contents" "k\r\nv1\r\nv2\r\n" contents

let test_csv_of_table () =
  let t = Text_table.create ~header:[ "a"; "b" ] () in
  Text_table.add_row t [ "1"; "2" ];
  Alcotest.(check string) "rows only" "1,2\r\n" (Csv.of_table t)

module Ascii_plot = Dynvote_report.Ascii_plot

let test_plot_render () =
  let out =
    Ascii_plot.render ~width:30 ~height:8
      [
        { Ascii_plot.label = "up"; points = [ (0.0, 0.0); (1.0, 1.0); (2.0, 2.0) ] };
        { Ascii_plot.label = "down"; points = [ (0.0, 2.0); (1.0, 1.0); (2.0, 0.0) ] };
      ]
  in
  Alcotest.(check bool) "has first glyph" true (contains ~needle:"*" out);
  Alcotest.(check bool) "has second glyph" true (contains ~needle:"o" out);
  Alcotest.(check bool) "legend present" true (contains ~needle:"* = up" out);
  Alcotest.(check int) "line count" (8 + 3)
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' out)))

let test_plot_log_scale () =
  let out =
    Ascii_plot.render ~width:20 ~height:6 ~scale:Ascii_plot.Log10
      [ { Ascii_plot.label = "u"; points = [ (1.0, 0.001); (2.0, 0.1); (3.0, 10.0) ] } ]
  in
  Alcotest.(check bool) "top label is max" true (contains ~needle:"10" out);
  Alcotest.check_raises "log of zero"
    (Invalid_argument "Ascii_plot.render: log scale needs positive y") (fun () ->
      ignore
        (Ascii_plot.render ~scale:Ascii_plot.Log10
           [ { Ascii_plot.label = "bad"; points = [ (0.0, 0.0) ] } ]))

let test_plot_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Ascii_plot.render: no series")
    (fun () -> ignore (Ascii_plot.render []));
  Alcotest.check_raises "tiny" (Invalid_argument "Ascii_plot.render: too small")
    (fun () ->
      ignore
        (Ascii_plot.render ~width:2 ~height:2
           [ { Ascii_plot.label = "x"; points = [ (0.0, 0.0) ] } ]))

module Json = Dynvote_report.Json

let test_json_escaping () =
  Alcotest.(check string) "quote, backslash, newline, control bytes"
    {|"a\"b\\c\nd\u0001\u001f\u0009"|}
    (Json.to_string (Json.String "a\"b\\c\nd\001\031\t"));
  Alcotest.(check string) "keys escape too" {|{"k\"":1}|}
    (Json.to_string (Json.Obj [ ("k\"", Json.Int 1) ]))

let test_json_floats () =
  Alcotest.(check string) "non-finite is null" "[null,null,null,0.5,3,1.23456789e-07]"
    (Json.to_string
       (Json.List
          [ Json.Float Float.nan; Json.Float Float.infinity;
            Json.Float Float.neg_infinity; Json.Float 0.5; Json.Float 3.0;
            Json.Float 1.23456789e-7 ]))

let test_json_structure () =
  Alcotest.(check string) "key order kept, nested lists"
    {|{"z":[],"a":[[1,true],[null,"x"]],"m":{"b":false,"a":-2}}|}
    (Json.to_string
       (Json.Obj
          [ ("z", Json.List []);
            ( "a",
              Json.List
                [ Json.List [ Json.Int 1; Json.Bool true ];
                  Json.List [ Json.Null; Json.String "x" ] ] );
            ("m", Json.Obj [ ("b", Json.Bool false); ("a", Json.Int (-2)) ]) ]))

(* [Metrics.snapshot_to_json] on a fixed registry: escaped names, an
   integral and a non-finite gauge, a populated and an empty histogram.
   The bytes are what [stats --json] prints. *)
module Metrics = Dynvote_obs.Metrics

let test_snapshot_json () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "live.op.granted") 7;
  Metrics.incr (Metrics.counter m "odd \"name\"\n");
  Metrics.set_gauge (Metrics.gauge m "ratio") 0.125;
  Metrics.set_gauge (Metrics.gauge m "whole") 3.0;
  Metrics.set_gauge (Metrics.gauge m "undefined") Float.nan;
  let h = Metrics.histogram m "op.seconds" in
  List.iter (Metrics.observe h) [ 0.001; 0.0025; 0.004; 0.5 ];
  ignore (Metrics.histogram m "empty.seconds" : Metrics.histogram);
  Alcotest.(check string) "pinned bytes"
    (String.concat ""
       [ "{\"counters\":{\"live.op.granted\":7,\"odd \\\"name\\\"\\n\":1},";
         "\"gauges\":{\"ratio\":0.125,\"undefined\":null,\"whole\":3},";
         "\"histograms\":{\"empty.seconds\":{\"count\":0,\"mean\":null,";
         "\"p50\":null,\"p95\":null,\"p99\":null,\"max\":null},";
         "\"op.seconds\":{\"count\":4,\"mean\":0.126875,\"p50\":0.00254829675,";
         "\"p95\":0.523299115,\"p99\":0.523299115,\"max\":0.5}}}" ])
    (Metrics.snapshot_to_json (Metrics.snapshot m))

let suite =
  [
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "row validation" `Quick test_row_validation;
    Alcotest.test_case "markdown" `Quick test_markdown;
    Alcotest.test_case "cell formatting" `Quick test_cells;
    Alcotest.test_case "csv basics" `Quick test_csv_basic;
    Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
    Alcotest.test_case "csv write round-trip" `Quick test_csv_write_roundtrip;
    Alcotest.test_case "csv of table" `Quick test_csv_of_table;
    Alcotest.test_case "plot render" `Quick test_plot_render;
    Alcotest.test_case "plot log scale" `Quick test_plot_log_scale;
    Alcotest.test_case "plot validation" `Quick test_plot_validation;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "json non-finite floats" `Quick test_json_floats;
    Alcotest.test_case "json key order and nesting" `Quick test_json_structure;
    Alcotest.test_case "metrics snapshot json" `Quick test_snapshot_json;
  ]
