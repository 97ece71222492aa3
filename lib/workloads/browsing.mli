(** The profiling corpus used for the browser (paper §5.3).

    The paper profiles Servo with "the test suites for the Web Platform
    Tests, jQuery, and Web-IDL" plus Selenium-driven browsing of common
    pages, reaching ~30% code coverage — enough that only 274 sites move.
    This module is that corpus for the browser substrate: named sessions
    (a page plus interaction scripts) that together exercise every shared
    binding flow, collected into a {!Runtime.Corpus.t}. *)

type session = {
  session_name : string;
  page : string;
  scripts : string list;
}

val sessions : session list
(** wpt / jquery / webidl suite stand-ins plus browsing sessions. *)

val collect : unit -> Runtime.Corpus.t
(** Runs every session on a fresh profiling build and collects the runs. *)

val deployment_profile : unit -> Runtime.Profile.t
(** The merged corpus — what the enforcement build ships with. *)
