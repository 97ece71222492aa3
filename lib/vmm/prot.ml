type t = {
  read : bool;
  write : bool;
  execute : bool;
}

let none = { read = false; write = false; execute = false }
let read_write = { read = true; write = true; execute = false }

let validate t =
  if t.write && t.execute then Error "W^X violation: page both writable and executable"
  else Ok t
