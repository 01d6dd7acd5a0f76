type t = { region : string; host : string; user : string }

let valid_token_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_'

let valid_token s = String.length s > 0 && String.for_all valid_token_char s

let make ~region ~host ~user =
  let check what s =
    if not (valid_token s) then
      invalid_arg (Printf.sprintf "Name.make: invalid %s token %S" what s)
  in
  check "region" region;
  check "host" host;
  check "user" user;
  { region; host; user }

let of_string s =
  match String.split_on_char '.' s with
  | [ region; host; user ] ->
      if valid_token region && valid_token host && valid_token user then
        Ok { region; host; user }
      else Error (Printf.sprintf "invalid token in name %S" s)
  | _ -> Error (Printf.sprintf "name %S is not of the form region.host.user" s)

let of_string_exn s =
  match of_string s with Ok n -> n | Error e -> invalid_arg ("Name.of_string_exn: " ^ e)

let to_string n = String.concat "." [ n.region; n.host; n.user ]

let region n = n.region
let host n = n.host
let user n = n.user

let with_host n host = make ~region:n.region ~host ~user:n.user
let with_region n ~region ~host = make ~region ~host ~user:n.user

let equal a b =
  String.equal a.region b.region
  && String.equal a.host b.host
  && String.equal a.user b.user

let compare a b =
  match String.compare a.region b.region with
  | 0 -> (
      match String.compare a.host b.host with
      | 0 -> String.compare a.user b.user
      | c -> c)
  | c -> c

(* Typed, seed-independent mix of the three string hashes. *)
let hash n =
  (((String.hash n.region * 31) + String.hash n.host) * 31) + String.hash n.user

(* FNV-1a over the bytes of a string, folded into [0, groups). The
   host component is deliberately excluded so that names stay in the
   same group when a user's primary host changes within a region
   (design 2 requirement). *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let hash_group ~groups n =
  if groups <= 0 then invalid_arg "Name.hash_group: groups <= 0";
  let key = n.region ^ "\x00" ^ n.user in
  let h = fnv1a key in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int groups))

let pp ppf n = Format.pp_print_string ppf (to_string n)

module Pattern = struct
  type name = t

  type component = Literal of string | Wildcard

  type t = { p_region : component; p_host : component; p_user : component }

  let component_of_string s =
    if String.equal s "*" then Ok Wildcard
    else if valid_token s then Ok (Literal s)
    else Error (Printf.sprintf "invalid pattern token %S" s)

  let of_string s =
    match String.split_on_char '.' s with
    | [ r; h; u ] -> (
        match (component_of_string r, component_of_string h, component_of_string u) with
        | Ok p_region, Ok p_host, Ok p_user -> Ok { p_region; p_host; p_user }
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)
    | _ -> Error (Printf.sprintf "pattern %S is not of the form r.h.u" s)

  let of_string_exn s =
    match of_string s with
    | Ok p -> p
    | Error e -> invalid_arg ("Name.Pattern.of_string_exn: " ^ e)

  let component_to_string = function Literal s -> s | Wildcard -> "*"

  let to_string p =
    String.concat "."
      [
        component_to_string p.p_region;
        component_to_string p.p_host;
        component_to_string p.p_user;
      ]

  let component_matches c s =
    match c with Wildcard -> true | Literal l -> String.equal l s

  let matches p (n : name) =
    component_matches p.p_region n.region
    && component_matches p.p_host n.host
    && component_matches p.p_user n.user
end
