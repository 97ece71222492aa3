(* Browser sites live in a reserved "function" id space (1000+) so they can
   never collide with compiler-assigned or test-synthetic ids. *)
let site n = Runtime.Alloc_id.make ~func_id:1000 ~block_id:0 ~call_id:n

let node_record = site 0
let text_buffer = site 1
let attr_record = site 2
let attr_value = site 3
let title_buffer = site 4
let script_source = site 5
let inner_html = site 6
let get_attribute = site 7
let text_content = site 8
let query_result = site 9
let layout_scratch = site 11
