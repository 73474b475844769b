(* Parser fuzzing: on arbitrary byte strings the SQL front end may
   accept or reject, but the only permitted rejections are the typed
   Lex_error / Parse_error — no Invalid_argument, no Failure, no
   assertion from deep inside the lexer.  The wire protocol's request
   parsers and the store's record codec get the same treatment: they
   answer [Ok]/[Error]/[None] on any bytes and never raise. *)

open Relal
module Protocol = Perso_server.Protocol
module Codec = Perso_store.Codec

(* true iff the front end held its contract on this input *)
let front_end_total s =
  match Sql_parser.parse s with
  | (_ : Sql_ast.query) -> true
  | exception Sql_parser.Parse_error _ -> true
  | exception Sql_lexer.Lex_error _ -> true
  | exception _ -> false

let fuzz_random_bytes =
  QCheck.Test.make ~count:2000 ~name:"parser total on random bytes"
    QCheck.(string_gen Gen.char)
    front_end_total

let fuzz_almost_sql =
  (* Mutations close to real SQL reach deeper into the parser than
     uniform noise does. *)
  let fragment =
    QCheck.Gen.oneofl
      [
        "select"; "from"; "where"; "and"; "or"; "group by"; "order";
        "m.title"; "movie m"; "*"; ","; "("; ")"; "'"; "''"; "0.5"; "42";
        "="; "<>"; "<="; ">"; "count"; "distinct"; "as"; "having";
        "union all"; "not"; "null"; "--"; "\n"; " "; "\t"; "\x00"; "\xff";
      ]
  in
  let gen =
    QCheck.Gen.(map (String.concat " ") (list_size (int_range 0 12) fragment))
  in
  QCheck.Test.make ~count:2000 ~name:"parser total on SQL-ish mutations"
    (QCheck.make ~print:(fun s -> String.escaped s) gen)
    front_end_total

let adversarial_corpus =
  [
    "";
    " ";
    "select";
    "select ";
    "select * from";
    "select m. from m";
    "select 'unterminated from movie m";
    "select m.title from movie m where";
    "select m.title from movie m where m.year = ";
    "select ((((((((((";
    "select m.title from (select from) x";
    "select \x00\x01\x02 from \xfe\xff";
    String.make 10_000 '(';
    String.make 100_000 'a';
    "select " ^ String.concat ", " (List.init 2000 (fun i -> Printf.sprintf "t.c%d" i)) ^ " from t";
    "SELECT M.TITLE FROM MOVIE M WHERE M.YEAR = 2003";
    "select m.title from movie m where m.title = '\\'";
    "select m.title -- comment\nfrom movie m";
  ]

let test_adversarial () =
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "corpus case %d" i)
        true (front_end_total s))
    adversarial_corpus

(* ----------------------------- wire protocol ------------------------ *)

(* true iff both request-line parsers returned instead of raising *)
let protocol_total line =
  match
    ( Protocol.parse_command line,
      Option.map (fun f -> f Protocol.empty_header)
        (Protocol.parse_header_line line) )
  with
  | (Ok _ | Error _), (Some _ | None) -> true
  | exception _ -> false

let fuzz_protocol_bytes =
  QCheck.Test.make ~count:2000 ~name:"request parsers total on random bytes"
    QCheck.(string_gen Gen.char)
    protocol_total

let fuzz_protocol_mutations =
  let fragment =
    QCheck.Gen.oneofl
      [
        "RUN"; "PERSONALIZE"; "PROFILE"; "SAVE"; "LOAD"; "HEALTH"; "PING";
        "SHUTDOWN"; "QUIT"; "DEADLINE-MS"; "MAX-ROWS"; "MAX-EXPANSIONS";
        "run"; "profile save"; "julie"; "select m.title from movie m"; "[";
        "]"; ","; "0.5"; "-1"; "1e308"; "nan"; "inf"; "0x1f"; "99999999999999999999";
        ""; " "; "  "; "\t"; "\r"; "\n"; "\x00"; "\xff";
      ]
  in
  let gen =
    QCheck.Gen.(map (String.concat " ") (list_size (int_range 0 8) fragment))
  in
  QCheck.Test.make ~count:2000 ~name:"request parsers total on protocol-ish lines"
    (QCheck.make ~print:String.escaped gen)
    protocol_total

(* ------------------------------ record codec ------------------------- *)

let decode_total bytes =
  match Codec.decode_record bytes with
  | Ok _ | Error _ -> true
  | exception _ -> false

let fuzz_codec_bytes =
  QCheck.Test.make ~count:2000 ~name:"decode_record total on random bytes"
    QCheck.(string_gen Gen.char)
    decode_total

let record_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_range 0 12) in
  let entry =
    map2 (fun cond degree -> { Codec.cond; degree }) str float
  in
  oneof
    [
      map3
        (fun user revision entries -> Codec.Put { user; revision; entries })
        str (int_range 0 max_int) (list_size (int_range 0 6) entry);
      map2
        (fun user revision -> Codec.Delete { user; revision })
        str (int_range 0 max_int);
    ]

(* Float fields compare by bit pattern, so NaN payloads round-trip too. *)
let same_record a b =
  match (a, b) with
  | Codec.Put p, Codec.Put q ->
      p.user = q.user && p.revision = q.revision
      && List.equal
           (fun (e : Codec.entry) (f : Codec.entry) ->
             e.cond = f.cond
             && Int64.equal (Int64.bits_of_float e.degree)
                  (Int64.bits_of_float f.degree))
           p.entries q.entries
  | Codec.Delete p, Codec.Delete q -> p.user = q.user && p.revision = q.revision
  | _ -> false

let print_record r = String.escaped (Codec.encode_record r)

let fuzz_codec_round_trip =
  QCheck.Test.make ~count:1000 ~name:"encode_record -> decode_record round trip"
    (QCheck.make ~print:print_record record_gen)
    (fun r ->
      match Codec.decode_record (Codec.encode_record r) with
      | Ok r' -> same_record r r'
      | Error _ -> false)

(* Damage a valid encoding — overwrite one byte, then cut it short —
   which reaches the length and count fields that uniform noise rarely
   makes well-formed enough to matter. *)
let fuzz_codec_damage =
  let gen =
    QCheck.Gen.(
      map3
        (fun r (pos, byte) cut ->
          let s = Bytes.of_string (Codec.encode_record r) in
          let n = Bytes.length s in
          if n > 0 then Bytes.set s (pos mod n) byte;
          Bytes.sub_string s 0 (n - (cut mod (n + 1))))
        record_gen (pair nat char) nat)
  in
  QCheck.Test.make ~count:2000 ~name:"decode_record total on damaged records"
    (QCheck.make ~print:String.escaped gen)
    decode_total

(* Length and count fields that decode to huge or negative integers
   (a 9-byte varint sets the sign bit) must be refused, not passed to
   [String.sub] / [List.init]. *)
let test_codec_hostile_lengths () =
  let varint_bytes l = String.concat "" (List.map (String.make 1) l) in
  let max_varint = varint_bytes (List.init 8 (fun _ -> '\xff') @ [ '\x7f' ]) in
  let big_varint = varint_bytes (List.init 8 (fun _ -> '\xff') @ [ '\x3f' ]) in
  let put_header = "\x01\x01u\x00" in
  List.iteri
    (fun i bytes ->
      match Codec.decode_record bytes with
      | Ok _ -> Alcotest.failf "case %d decoded" i
      | Error _ -> ()
      | exception e ->
          Alcotest.failf "case %d raised %s" i (Printexc.to_string e))
    [
      "\x01" ^ max_varint ^ "user";
      "\x01" ^ big_varint ^ "user";
      put_header ^ max_varint;
      put_header ^ big_varint;
      put_header ^ "\x01" ^ max_varint;
    ]

let () =
  Alcotest.run "fuzz"
    [
      ( "sql front end",
        [
          QCheck_alcotest.to_alcotest fuzz_random_bytes;
          QCheck_alcotest.to_alcotest fuzz_almost_sql;
          Alcotest.test_case "adversarial corpus" `Quick test_adversarial;
        ] );
      ( "wire protocol",
        [
          QCheck_alcotest.to_alcotest fuzz_protocol_bytes;
          QCheck_alcotest.to_alcotest fuzz_protocol_mutations;
        ] );
      ( "record codec",
        [
          QCheck_alcotest.to_alcotest fuzz_codec_bytes;
          QCheck_alcotest.to_alcotest fuzz_codec_damage;
          QCheck_alcotest.to_alcotest fuzz_codec_round_trip;
          Alcotest.test_case "hostile lengths" `Quick test_codec_hostile_lengths;
        ] );
    ]
