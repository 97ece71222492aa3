type bench = {
  name : string;
  page : string;
  script : string;
  engine_seed : int;
}

type suite = {
  suite_name : string;
  benches : bench list;
}

let bench ?(page = "<body></body>") name script = { name; page; script; engine_seed = 1 }
