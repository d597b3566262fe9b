//! `jt` — command-line front end for JSON tiles.
//!
//! ```text
//! jt load  input.ndjson table.jt [--mode tiles|sinew|jsonb|json]
//!                                 [--tile-size N] [--partition N] [--threads N]
//!                                 [--strict]
//! jt sql   table.jt "SELECT data->>'k'::INT, COUNT(*) FROM t GROUP BY 1"
//!                                 [--skip-corrupt]
//! jt info  table.jt               [--skip-corrupt]
//! jt serve table.jt [more.jt …]   [--port N] [--workers N] [--queue N]
//!                                 [--timeout-ms N] [--append-threshold N]
//!                                 [--no-checkpoint] [--log N] [--slow-ms N]
//! jt metrics [--prom]             # dump the metrics registry as JSON, or
//!                                 # in Prometheus text exposition format
//! ```
//!
//! `load` parses newline-delimited JSON, builds the tiles (mining,
//! reordering, statistics), and persists the relation; malformed lines are
//! skipped and counted unless `--strict` makes them fatal. Loading runs the
//! on-demand pipeline (structural-index parsing + structure-hash
//! deduplicated mining, §4.3), the same one that turns `serve`'s `.append`
//! batches into tiles. `sql` re-opens
//! the file and runs a query (the table is always named `t`); prefix the
//! query with `EXPLAIN` for the plan or `EXPLAIN ANALYZE` for the executed
//! per-operator profile. `info` prints the per-tile extraction summary and
//! the relation statistics. With `--skip-corrupt`, damaged tiles in the
//! file are quarantined instead of failing the open.
//!
//! The global flag `--metrics-json <path>` (valid before or after the
//! subcommand) writes the full `jt-obs` metric registry as JSON on exit;
//! `jt metrics` prints the same snapshot to stdout (empty until commands
//! in the same process have run, so it is mostly useful with the library
//! API — the CLI form exists for scripting symmetry and schema discovery).

use json_tiles::obs;
use json_tiles::sql;
use json_tiles::tiles::{CorruptTilePolicy, OpenOptions, Relation, StorageMode, TilesConfig};

fn main() {
    obs::set_enabled(true);
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_path = extract_metrics_flag(&mut args);
    let code = match args.first().map(String::as_str) {
        Some("load") => cmd_load(&args[1..]),
        Some("sql") => cmd_sql(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        _ => {
            eprintln!("usage: jt <load|sql|info|serve|metrics> ... (see source header)");
            2
        }
    };
    if let Some(path) = metrics_path {
        let json = obs::global().snapshot().to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write metrics to {path}: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(code);
}

/// Strip a `--metrics-json <path>` pair from the argument list, wherever it
/// appears, and return the path.
fn extract_metrics_flag(args: &mut Vec<String>) -> Option<String> {
    let i = args.iter().position(|a| a == "--metrics-json")?;
    if i + 1 >= args.len() {
        eprintln!("--metrics-json requires a path");
        std::process::exit(2);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Some(path)
}

fn cmd_metrics(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        None => println!("{}", obs::global().snapshot().to_json()),
        Some("--prom") => print!("{}", obs::global().snapshot().to_prometheus()),
        Some(other) => {
            eprintln!("usage: jt metrics [--prom] (got {other:?})");
            return 2;
        }
    }
    0
}

fn cmd_load(args: &[String]) -> i32 {
    let mut positional = Vec::new();
    let mut config = TilesConfig::default();
    let mut threads = Relation::default_load_threads();
    let mut strict = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--mode" => {
                config.mode = match args.get(i + 1).map(String::as_str) {
                    Some("tiles") => StorageMode::Tiles,
                    Some("sinew") => StorageMode::Sinew,
                    Some("jsonb") => StorageMode::Jsonb,
                    Some("json") => StorageMode::JsonText,
                    other => {
                        eprintln!("bad --mode {other:?}");
                        return 2;
                    }
                };
                i += 2;
            }
            "--tile-size" => {
                config.tile_size = args[i + 1].parse().expect("numeric tile size");
                i += 2;
            }
            "--partition" => {
                config.partition_size = args[i + 1].parse().expect("numeric partition size");
                i += 2;
            }
            "--threads" => {
                threads = args[i + 1].parse().expect("numeric thread count");
                i += 2;
            }
            "--strict" => {
                strict = true;
                i += 1;
            }
            other => {
                positional.push(other.to_owned());
                i += 1;
            }
        }
    }
    let [input, output] = positional.as_slice() else {
        eprintln!("usage: jt load <input.ndjson> <output.jt> [flags]");
        return 2;
    };
    let file = match std::fs::File::open(input) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return 1;
        }
    };
    let (mut rel, report) = match json_tiles::data::ingest_ndjson_ondemand(file, config, threads) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot load {input}: {e}");
            return 1;
        }
    };
    for (line, err) in &report.errors {
        eprintln!("{input}:{line}: {err}");
    }
    if report.skipped > 0 {
        if strict {
            eprintln!("{input}: {} malformed lines (--strict)", report.skipped);
            return 1;
        }
        eprintln!("{input}: skipped {} malformed lines", report.skipped);
    }
    let m = rel.metrics().clone();
    if let Err(e) = rel.save(output) {
        eprintln!("cannot write {output}: {e}");
        return 1;
    }
    println!(
        "loaded {} docs into {} tiles at {:.0}k tuples/sec ({} partitions on {} threads) → {}",
        rel.row_count(),
        rel.tiles().len(),
        m.tuples_per_sec() / 1e3,
        m.partitions,
        m.threads,
        output
    );
    0
}

/// Parse trailing `--skip-corrupt` into open options, returning the
/// remaining positional arguments.
fn open_options(args: &[String]) -> (Vec<&String>, OpenOptions) {
    let mut options = OpenOptions::default();
    let positional = args
        .iter()
        .filter(|a| {
            if a.as_str() == "--skip-corrupt" {
                options.on_corrupt_tile = CorruptTilePolicy::Skip;
                false
            } else {
                true
            }
        })
        .collect();
    (positional, options)
}

fn open_reporting(file: &str, options: &OpenOptions) -> Option<Relation> {
    match Relation::open_with(file, options) {
        Ok(r) => {
            let q = &r.metrics().quarantined;
            if !q.is_empty() {
                eprintln!("{file}: quarantined {} corrupt tiles: {q:?}", q.len());
            }
            Some(r)
        }
        Err(e) => {
            eprintln!("cannot open {file}: {e}");
            None
        }
    }
}

fn cmd_sql(args: &[String]) -> i32 {
    let (positional, options) = open_options(args);
    let [file, query] = positional.as_slice() else {
        eprintln!("usage: jt sql <table.jt> \"SELECT ...\" [--skip-corrupt]");
        return 2;
    };
    let Some(rel) = open_reporting(file, &options) else {
        return 1;
    };
    let t0 = std::time::Instant::now();
    match sql::execute(query, &[("t", &rel)], Default::default()) {
        Ok(sql::SqlOutput::Rows(r)) => {
            for line in r.to_lines() {
                println!("{line}");
            }
            eprintln!(
                "({} rows in {:?}; {} tiles scanned, {} skipped)",
                r.rows(),
                t0.elapsed(),
                r.scan_stats.scanned_tiles,
                r.scan_stats.skipped_tiles
            );
            0
        }
        Ok(sql::SqlOutput::Plan(plan)) => {
            println!("{plan}");
            0
        }
        Ok(sql::SqlOutput::Analyze { rendered, result }) => {
            // Profile first, then the rows it describes — same order as
            // the serve protocol's multi-line payload.
            for line in rendered.lines() {
                println!("{line}");
            }
            for line in result.to_lines() {
                println!("{line}");
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `jt serve table.jt [more.jt …] [--port N] [--workers N] [--queue N]
/// [--timeout-ms N] [--append-threshold N] [--no-checkpoint]`
///
/// Serves the given relation files over the line-delimited TCP protocol
/// (see `crates/server`). A single file is served as table `t` (matching
/// `jt sql`); additional files are named by file stem. Prints
/// `listening <addr>` once the socket is live. Ctrl-C (SIGINT) or a
/// client `.shutdown` drains in-flight queries, aborts queued ones, and
/// checkpoints each table back to its file with the atomic v2 save
/// unless `--no-checkpoint` is given.
fn cmd_serve(args: &[String]) -> i32 {
    let mut files: Vec<String> = Vec::new();
    let mut config = json_tiles::server::ServerConfig::default();
    let mut port = 0u16;
    let mut checkpoint = true;
    let mut i = 0;
    while i < args.len() {
        let numeric = |flag: &str, v: Option<&String>| -> Option<u64> {
            match v.and_then(|s| s.parse().ok()) {
                Some(n) => Some(n),
                None => {
                    eprintln!("{flag} requires a number");
                    None
                }
            }
        };
        match args[i].as_str() {
            "--port" => {
                let Some(n) = numeric("--port", args.get(i + 1)) else {
                    return 2;
                };
                port = n as u16;
                i += 2;
            }
            "--workers" => {
                let Some(n) = numeric("--workers", args.get(i + 1)) else {
                    return 2;
                };
                config.workers = n as usize;
                i += 2;
            }
            "--queue" => {
                let Some(n) = numeric("--queue", args.get(i + 1)) else {
                    return 2;
                };
                config.queue_capacity = n as usize;
                i += 2;
            }
            "--timeout-ms" => {
                let Some(n) = numeric("--timeout-ms", args.get(i + 1)) else {
                    return 2;
                };
                config.default_timeout = (n > 0).then(|| std::time::Duration::from_millis(n));
                i += 2;
            }
            "--append-threshold" => {
                let Some(n) = numeric("--append-threshold", args.get(i + 1)) else {
                    return 2;
                };
                config.append_threshold = n as usize;
                i += 2;
            }
            "--no-checkpoint" => {
                checkpoint = false;
                i += 1;
            }
            "--log" => {
                let Some(n) = numeric("--log", args.get(i + 1)) else {
                    return 2;
                };
                config.log_capacity = n as usize;
                i += 2;
            }
            "--slow-ms" => {
                let Some(n) = numeric("--slow-ms", args.get(i + 1)) else {
                    return 2;
                };
                config.slow_threshold = (n > 0).then(|| std::time::Duration::from_millis(n));
                i += 2;
            }
            other => {
                files.push(other.to_owned());
                i += 1;
            }
        }
    }
    if files.is_empty() {
        eprintln!("usage: jt serve <table.jt> [more.jt …] [flags]");
        return 2;
    }
    config.addr = format!("127.0.0.1:{port}");
    let mut tables = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        let name = if files.len() == 1 && idx == 0 {
            "t".to_string()
        } else {
            std::path::Path::new(file)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| format!("t{idx}"))
        };
        let Some(rel) = open_reporting(file, &OpenOptions::default()) else {
            return 1;
        };
        if checkpoint {
            config
                .checkpoints
                .push((name.clone(), std::path::PathBuf::from(file)));
        }
        eprintln!("table {name}: {} rows from {file}", rel.row_count());
        tables.push((name, rel));
    }
    let sigint = json_tiles::server::install_sigint_handler();
    let server = match json_tiles::server::Server::start(tables, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return 1;
        }
    };
    println!("listening {}", server.addr());
    server.run_until(sigint);
    eprintln!("shutdown complete");
    0
}

fn cmd_info(args: &[String]) -> i32 {
    let (positional, options) = open_options(args);
    let [file] = positional.as_slice() else {
        eprintln!("usage: jt info <table.jt> [--skip-corrupt]");
        return 2;
    };
    let Some(rel) = open_reporting(file, &options) else {
        return 1;
    };
    println!(
        "{file}: {} rows, {} tiles, mode {:?}",
        rel.row_count(),
        rel.tiles().len(),
        rel.config().mode
    );
    let rep = rel.storage_report();
    println!(
        "storage: jsonb {:.1} KB, columns {:.1} KB, lz4 columns {:.1} KB, text {:.1} KB",
        rep.jsonb_bytes as f64 / 1e3,
        rep.tile_bytes as f64 / 1e3,
        rep.lz4_tile_bytes as f64 / 1e3,
        rep.text_bytes as f64 / 1e3,
    );
    for (i, tile) in rel.tiles().iter().enumerate().take(8) {
        let cols: Vec<String> = tile
            .header
            .columns
            .iter()
            .map(|m| format!("{}:{:?}", m.path, m.col_type))
            .collect();
        println!("tile {i} ({} rows): {}", tile.len(), cols.join(", "));
    }
    if rel.tiles().len() > 8 {
        println!("… {} more tiles", rel.tiles().len() - 8);
    }
    0
}
