//! The HTTP application behind `lockdown serve` — routing, figure
//! rendering, and error-to-status mapping, shared by the binary and the
//! integration tests so both exercise the exact same handler.
//!
//! Routes (all `GET`):
//!
//! - `/` — endpoint index.
//! - `/figures` — the figure catalog in suite print order.
//! - `/figures/<name>` — one figure, assembled on demand from archive
//!   cells through the query engine's cache and rendered byte-identical
//!   to the corresponding `suite::run_all` section.
//! - `/query?...` — a [`QueryPlan`] executed with predicate pushdown.
//! - `/metrics` — the combined `query_*` + `store_*` Prometheus snapshot.
//!
//! Malformed requests, unknown figures and bad query strings are 4xx;
//! archive trouble (a CRC-failing segment, a missing cell) is a 5xx
//! naming the culprit. Nothing panics the worker — and even a panic
//! would be caught by the server loop and served as a 500.

use lockdown_core::serve::{figure_names, render_figure, ServeError};
use lockdown_core::Context;
use lockdown_query::http::Handler;
use lockdown_query::json;
use lockdown_query::{QueryEngine, QueryPlan, Request, Response};
use lockdown_store::StoreError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One figure response: `{"name":...,"render":...}`.
fn figure_doc(name: &str, render: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"render\":\"{}\"}}",
        json::escape(name),
        json::escape(render)
    )
}

/// Map a figure-serving failure to an HTTP response. Unknown names are
/// the client's fault; archive trouble is ours — a `Missing` cell means
/// this archive cannot serve the figure (503), corruption or I/O is a
/// plain 500. The store error text names the offending segment.
fn serve_error_response(err: ServeError) -> Response {
    match err {
        ServeError::UnknownFigure(_) => Response::error(404, &err.to_string()),
        ServeError::Store(StoreError::Missing { .. }) => Response::error(503, &err.to_string()),
        ServeError::Store(_) => Response::error(500, &err.to_string()),
    }
}

/// Build the serving handler over an opened archive.
///
/// Figure renderings are memoized: the archive is immutable for the
/// lifetime of the server (the manifest key pins seed, scenario and
/// plan), so a figure rendered once is a string lookup forever after —
/// a request mix's hot `/figures/<name>` path never re-runs a plan.
pub fn build_handler(engine: Arc<QueryEngine>, ctx: Arc<Context>) -> Handler {
    let rendered: Arc<Mutex<HashMap<String, String>>> = Arc::new(Mutex::new(HashMap::new()));
    Arc::new(move |req: &Request| -> Response {
        match req.path.as_str() {
            "/" => {
                let doc =
                    "{\"endpoints\":[\"/figures\",\"/figures/<name>\",\"/query\",\"/metrics\"]}";
                Response::json(200, doc.to_string())
            }
            "/metrics" => Response::text(200, engine.render_metrics()),
            "/figures" => {
                let names: Vec<String> = figure_names()
                    .iter()
                    .map(|n| format!("\"{}\"", json::escape(n)))
                    .collect();
                Response::json(200, format!("{{\"figures\":[{}]}}", names.join(",")))
            }
            "/query" => {
                match QueryPlan::parse(req.query.iter().map(|(k, v)| (k.as_str(), v.as_str()))) {
                    Ok(plan) => match engine.execute(&plan) {
                        Ok(out) => Response::json(200, out.render_json()),
                        Err(e) => Response::error(500, &e.to_string()),
                    },
                    Err(e) => Response::error(400, &e),
                }
            }
            path => match path.strip_prefix("/figures/") {
                Some(name) => {
                    if let Some(doc) = rendered.lock().expect("render cache").get(name) {
                        return Response::json(200, doc.clone());
                    }
                    let mut fetch = |cell| engine.read_cell(cell);
                    match render_figure(&ctx, name, &mut fetch) {
                        Ok(render) => {
                            let doc = figure_doc(name, &render);
                            rendered
                                .lock()
                                .expect("render cache")
                                .insert(name.to_string(), doc.clone());
                            Response::json(200, doc)
                        }
                        Err(e) => serve_error_response(e),
                    }
                }
                None => Response::error(404, &format!("no such endpoint: {path}")),
            },
        }
    })
}
