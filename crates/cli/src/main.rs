//! `pdw` — command-line front end for the PathDriver-Wash reproduction.
//!
//! ```text
//! pdw list                                 # available benchmarks
//! pdw run PCR                              # DAWO vs PDW comparison
//! pdw run --assay my_assay.json            # custom assay from JSON
//! pdw run IVD --svg out/ --json result.json
//! pdw show demo                            # chip + ASCII Gantt
//! ```
//!
//! Every command reads its arguments through one grammar and refuses, as a
//! usage error (exit 1, usage on stderr), any argument its section of
//! `pdw help` does not list; `verify --partitions` needs `--faults`. A
//! reader that closes stdout early (`pdw list | head -1`) ends the command
//! quietly with exit 0.

use std::io::Write;
use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) | Err(commands::CliError::StdoutClosed) => ExitCode::SUCCESS,
        Err(e) => {
            // A failed write to stderr must not turn the exit code into a
            // panic's: the error is reported best-effort, and the exit
            // code stays 1 either way.
            let mut stderr = std::io::stderr().lock();
            let _ = writeln!(stderr, "pdw: {e}");
            if matches!(e, commands::CliError::Usage(_)) {
                let _ = writeln!(stderr, "\n{}", commands::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
