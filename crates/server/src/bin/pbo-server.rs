//! The `pbo-server` binary: serve, inspect, drive and validate
//! ask/tell optimization sessions. See `pbo-server help`.

use pbo_core::json::Json;
use pbo_core::observe::NullObserver;
use pbo_core::session::SessionState;
use pbo_server::cli::{self, Cmd, DriveOpts, GcOpts, ServeOpts, StatusOpts};
use pbo_server::client::{drive, Client};
use pbo_server::registry::{GcPolicy, Registry};
use pbo_server::server::Server;
use std::collections::HashMap;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("pbo-server: {e}\n\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let result = match cmd {
        Cmd::Help => {
            println!("{}", cli::USAGE);
            Ok(())
        }
        Cmd::Serve(opts) => serve(opts),
        Cmd::Status(opts) => status(opts),
        Cmd::Drive(opts) => run_drive(opts),
        Cmd::Validate { dir } => validate(&dir),
        Cmd::Gc(opts) => gc(opts),
    };
    if let Err(e) = result {
        eprintln!("pbo-server: {e}");
        std::process::exit(1);
    }
}

fn serve(opts: ServeOpts) -> Result<(), String> {
    let registry = Arc::new(Registry::open(&opts.dir)?);
    let restored = registry.len();
    let server = Server::bind_with(registry, &opts.addr, opts.config)
        .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let addr = server.local_addr();
    if let Some(path) = &opts.addr_file {
        pbo_core::checkpoint::atomic_write(path, &format!("{addr}\n"))?;
    }
    println!(
        "pbo-server listening on {addr} (sessions: {restored} restored, dir: {})",
        opts.dir.display()
    );
    server.run().map_err(|e| format!("serve: {e}"))
}

fn status(opts: StatusOpts) -> Result<(), String> {
    let mut client = Client::connect(&opts.addr).map_err(|e| e.to_string())?;
    let v = match &opts.id {
        Some(id) => client.status(id).map_err(|e| e.to_string())?,
        None => client.server_status().map_err(|e| e.to_string())?,
    };
    print_flat(&v);
    Ok(())
}

/// Print an `ok` response one `key: value` per line (skipping the
/// envelope field), so shell scripts can grep it.
fn print_flat(v: &Json) {
    if let Json::Obj(fields) = v {
        for (k, val) in fields {
            if k == "ok" {
                continue;
            }
            println!("{k}: {}", render(val));
        }
    }
}

fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => format!("{n:?}"),
        Json::Str(s) => s.clone(),
        Json::Arr(items) => {
            format!("[{}]", items.iter().map(render).collect::<Vec<_>>().join(", "))
        }
        Json::Obj(fields) => fields
            .iter()
            .map(|(k, v)| format!("{k}={}", render(v)))
            .collect::<Vec<_>>()
            .join(" "),
    }
}

fn run_drive(opts: DriveOpts) -> Result<(), String> {
    let record = if opts.local {
        Some(cli::run_local_reference(&opts)?)
    } else {
        let cfg = opts.session_config()?;
        let problem = opts.resolve_problem()?;
        let mut client = Client::connect(&opts.addr).map_err(|e| e.to_string())?;
        let outcome = drive(&mut client, &opts.id, &cfg, &problem, opts.stop_after)
            .map_err(|e| e.to_string())?;
        println!(
            "session {}: {} tells this run, {}",
            opts.id,
            outcome.tells,
            if outcome.done { "finished" } else { "suspended" }
        );
        outcome.record
    };
    match (record, &opts.record_out) {
        (Some(line), Some(path)) => {
            pbo_core::checkpoint::atomic_write(path, &format!("{line}\n"))?;
            println!("record written to {}", path.display());
        }
        (Some(line), None) => println!("{line}"),
        (None, Some(_)) => {
            return Err("session did not finish; no record to write".into());
        }
        (None, None) => {}
    }
    Ok(())
}

fn gc(opts: GcOpts) -> Result<(), String> {
    let registry = Registry::open(&opts.dir)?;
    let policy =
        GcPolicy { max_age_secs: opts.max_age_secs, keep_newest: opts.keep.unwrap_or(0) };
    let report = registry.gc(&policy);
    for id in &report.evicted {
        println!("evicted {id}");
    }
    println!(
        "{} evicted, {} kept, {} quarantined-corrupt kept (dir: {})",
        report.evicted.len(),
        report.kept,
        report.quarantined_kept,
        opts.dir.display()
    );
    Ok(())
}

fn validate(dir: &std::path::Path) -> Result<(), String> {
    let mut ok = 0usize;
    let mut corrupt = 0usize;
    let mut mismatched = 0usize;
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    let suffixed = |suffix: &'static str| {
        paths.iter().filter_map(move |p| {
            let name = p.file_name()?.to_str()?;
            name.strip_suffix(suffix).map(|stem| (p, stem))
        })
    };
    // The record file each replayed finished session should have.
    let mut records: HashMap<String, String> = HashMap::new();
    for (path, _) in suffixed(".session.json") {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|body| {
                SessionState::from_checkpoint_line(&body, NullObserver).map_err(|e| e.to_string())
            });
        match verdict {
            Ok((id, state)) => {
                ok += 1;
                println!(
                    "ok      {} (id {id}, phase {}, turn {})",
                    path.display(),
                    state.status().phase,
                    state.turn()
                );
                if let Some(record) = state.record() {
                    records.insert(id, format!("{}\n", record.to_json_line()));
                }
            }
            Err(e) => {
                corrupt += 1;
                println!("CORRUPT {}: {e}", path.display());
            }
        }
    }
    for (path, id) in suffixed(".record.json") {
        let body = std::fs::read_to_string(path).map_err(|e| e.to_string());
        let verdict = match (records.get(id), body) {
            (Some(want), Ok(body)) if *want == body => Ok(()),
            (Some(_), Ok(_)) => Err("differs from its replayed checkpoint".to_string()),
            (None, Ok(_)) => Err("no finished checkpoint replays to it".to_string()),
            (_, Err(e)) => Err(e),
        };
        match verdict {
            Ok(()) => println!("ok      {} (matches its replayed checkpoint)", path.display()),
            Err(e) => {
                mismatched += 1;
                println!("MISMATCH {}: {e}", path.display());
            }
        }
    }
    println!("{ok} ok, {corrupt} corrupt, {mismatched} record mismatch(es)");
    if corrupt > 0 || mismatched > 0 {
        return Err(format!(
            "{corrupt} corrupt session checkpoint(s), {mismatched} record mismatch(es)"
        ));
    }
    Ok(())
}
