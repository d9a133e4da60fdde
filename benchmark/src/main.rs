fn main() -> std::process::ExitCode {
    roombench::cli(std::env::args().skip(1).collect())
}
