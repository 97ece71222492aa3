type t =
  | Trusted
  | Untrusted

let to_string = function
  | Trusted -> "trusted"
  | Untrusted -> "untrusted"

let trusted_view = Mpk.Pkru.all_enabled

let untrusted_view = Mpk.Pkru.all_disabled_except []

let of_pkru pkru = if Mpk.Pkru.can_read pkru Mpk.Pkey.trusted then Trusted else Untrusted
