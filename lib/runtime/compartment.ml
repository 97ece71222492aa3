type t =
  | Trusted
  | Untrusted

let equal a b =
  match (a, b) with
  | Trusted, Trusted | Untrusted, Untrusted -> true
  | Trusted, Untrusted | Untrusted, Trusted -> false

let to_string = function
  | Trusted -> "trusted"
  | Untrusted -> "untrusted"

let trusted_view = Mpk.Pkru.all_enabled

let untrusted_view ~trusted_pkey:_ = Mpk.Pkru.all_disabled_except []

let of_pkru ~trusted_pkey pkru =
  if Mpk.Pkru.can_read pkru trusted_pkey then Trusted else Untrusted
