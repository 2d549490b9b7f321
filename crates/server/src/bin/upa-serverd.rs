//! The upa-server daemon; `upa_server::daemon` holds its flags, usage
//! and startup, shared with `upa-cli serve`.

fn main() -> std::process::ExitCode {
    upa_server::daemon::main("upa-serverd", std::env::args().skip(1))
}
