//! The `parflow` CLI: simulate, compare, generate, analyze, exec, serve,
//! sweep, dot. All logic lives in `parflow::cli` (unit-tested); this
//! wrapper only forwards arguments and sets the exit code.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parflow::cli::run_cli(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", parflow::cli::USAGE);
            std::process::exit(2);
        }
    }
}
