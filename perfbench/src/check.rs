//! Answer checks. A mismatch counts as one failed operation.
//!
//! * `world_queries` — each distinct statement's rendered answer is
//!   computed once, before the timed loop, on a reference session with the
//!   rewrite, factorized and columnar paths switched off (the Figure-3
//!   interpreter), and every timed answer must equal it.
//! * `session_stream` — every TCP response must be byte-identical to
//!   [`isql::server::execute_rendered`] on an in-process mirror session
//!   fed the same statements.
//! * `durable_writes` — the catalog recovered from the data directory must
//!   equal the last snapshot the engine published.

use isql::server::execute_rendered;
use isql::{Engine, Session, Snapshot};

/// `set local` statements that route a session through the reference
/// (Figure-3) evaluator only.
pub const REFERENCE_SETTINGS: &str =
    "set local rewrite = off; set local factorize = off; set local columnar = off;";

/// A rendered response: the payload of an `OK`, or the message of an
/// `ERR`, exactly as the server sends them.
pub type Response = Result<String, String>;

/// The reference answer to `sql` on `engine`'s current catalog.
pub fn reference_answer(engine: &Engine, sql: &str) -> Response {
    let mut s = engine.session();
    s.execute(REFERENCE_SETTINGS)
        .map_err(|e| format!("{e}\n"))?;
    execute_rendered(&mut s, sql)
}

/// Whether a timed answer is correct: it succeeded and equals the
/// expected rendering byte for byte.
pub fn answer_ok(got: &Response, expected: &Response) -> bool {
    got.is_ok() && got == expected
}

/// Replay the statements a TCP client sent, in order, on `mirror` and
/// count the responses that differ from the mirror's rendering or that
/// reported an error.
pub fn stream_mismatches(mirror: &mut Session, sent: &[(String, Response)]) -> usize {
    sent.iter()
        .filter(|(sql, got)| !answer_ok(got, &execute_rendered(mirror, sql)))
        .count()
}

/// Compare a recovered snapshot with the one the engine last published:
/// sequence number, key constraints, relation names and every relation of
/// every world.
pub fn recovered_matches(recovered: &Snapshot, published: &Snapshot) -> Result<(), String> {
    if recovered.seq() != published.seq() {
        return Err(format!(
            "recovered seq {} != published seq {}",
            recovered.seq(),
            published.seq()
        ));
    }
    if recovered.keys() != published.keys() {
        return Err("recovered key constraints differ".into());
    }
    let (r, p) = (recovered.world_set(), published.world_set());
    if r.rel_names() != p.rel_names() {
        return Err("recovered relation names differ".into());
    }
    if r != p {
        return Err("recovered relation contents differ".into());
    }
    Ok(())
}
