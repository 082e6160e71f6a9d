type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string v =
  if not (Float.is_finite v) then
    invalid_arg "Json.to_string: non-finite number";
  if Float.is_integer v && Float.abs v < 1e15 then
    (* Exact small integers print without an exponent or fraction —
       indices, counts and grid values stay human-readable. *)
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_string t =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num v -> Buffer.add_string buf (number_to_string v)
    | Str s -> escape_string buf s
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (name, value) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf name;
          Buffer.add_char buf ':';
          go value)
        fields;
      Buffer.add_char buf '}'
  in
  go t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent, error by exception, caught at the top   *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { input : string; mutable pos : int }

let peek c = if c.pos < String.length c.input then Some c.input.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let expect c ch =
  match peek c with
  | Some got when got = ch -> advance c
  | Some got -> parse_error "expected '%c' at offset %d, got '%c'" ch c.pos got
  | None -> parse_error "expected '%c' at offset %d, got end of input" ch c.pos

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect_literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.input && String.sub c.input c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

let utf8_of_code_point buf cp =
  (* Encode one Unicode scalar value as UTF-8. *)
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_hex4 c =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> parse_error "invalid \\u escape at offset %d" c.pos
  in
  let acc = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
     | Some ch -> acc := (!acc * 16) + digit ch
     | None -> parse_error "truncated \\u escape at offset %d" c.pos);
    advance c
  done;
  !acc

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_error "unterminated string at offset %d" c.pos
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
       | None -> parse_error "unterminated escape at offset %d" c.pos
       | Some ch ->
         advance c;
         (match ch with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            let cp = parse_hex4 c in
            let cp =
              (* Combine a surrogate pair into one code point. *)
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                expect c '\\';
                expect c 'u';
                let lo = parse_hex4 c in
                if lo < 0xDC00 || lo > 0xDFFF then
                  parse_error "unpaired surrogate at offset %d" c.pos;
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then
                parse_error "unpaired surrogate at offset %d" c.pos
              else cp
            in
            utf8_of_code_point buf cp
          | _ -> parse_error "invalid escape '\\%c' at offset %d" ch c.pos));
      go ()
    | Some ch when Char.code ch < 0x20 ->
      parse_error "unescaped control character at offset %d" c.pos
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let consume_while pred =
    let continue = ref true in
    while !continue do
      match peek c with
      | Some ch when pred ch -> advance c
      | _ -> continue := false
    done
  in
  let digits () =
    let before = c.pos in
    consume_while (function '0' .. '9' -> true | _ -> false);
    if c.pos = before then parse_error "malformed number at offset %d" c.pos
  in
  (match peek c with Some '-' -> advance c | _ -> ());
  digits ();
  (match peek c with
   | Some '.' ->
     advance c;
     digits ()
   | _ -> ());
  (match peek c with
   | Some ('e' | 'E') ->
     advance c;
     (match peek c with Some ('+' | '-') -> advance c | _ -> ());
     digits ()
   | _ -> ());
  let text = String.sub c.input start (c.pos - start) in
  match float_of_string_opt text with
  | Some v -> v
  | None -> parse_error "malformed number %S at offset %d" text start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input at offset %d" c.pos
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let name = parse_string c in
        skip_ws c;
        expect c ':';
        let value = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((name, value) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((name, value) :: acc)
        | _ -> parse_error "expected ',' or '}' at offset %d" c.pos
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec items acc =
        let value = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (value :: acc)
        | Some ']' ->
          advance c;
          List.rev (value :: acc)
        | _ -> parse_error "expected ',' or ']' at offset %d" c.pos
      in
      Arr (items [])
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> expect_literal c "true" (Bool true)
  | Some 'f' -> expect_literal c "false" (Bool false)
  | Some 'n' -> expect_literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> parse_error "unexpected character '%c' at offset %d" ch c.pos

let of_string input =
  let c = { input; pos = 0 } in
  match parse_value c with
  | value ->
    skip_ws c;
    if c.pos = String.length input then Ok value
    else Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"

let to_num = function
  | Num v -> Ok v
  | t -> Error ("expected number, got " ^ type_name t)

let to_int = function
  | Num v when Float.is_integer v && Float.abs v <= 4503599627370496.0 ->
    Ok (int_of_float v)
  | Num _ -> Error "expected integer, got fractional number"
  | t -> Error ("expected integer, got " ^ type_name t)

let to_str = function
  | Str s -> Ok s
  | t -> Error ("expected string, got " ^ type_name t)

let to_bool = function
  | Bool b -> Ok b
  | t -> Error ("expected bool, got " ^ type_name t)

let field name conv j =
  match member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> conv v

let opt_field name conv j =
  match member name j with
  | None | Some Null -> Ok None
  | Some v -> Result.map Option.some (conv v)

let list conv j =
  match j with
  | Arr items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        match conv item with Ok v -> go (v :: acc) rest | Error _ as e -> e)
    in
    go [] items
  | t -> Error ("expected array, got " ^ type_name t)
