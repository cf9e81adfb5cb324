//! `lockbench`: see README.md for the commands.

use lockbench::cli;

fn main() {
    std::process::exit(cli::main(std::env::args().skip(1).collect()));
}
