//! `crispc` — compile mini-C to CRISP code.
//!
//! ```text
//! crispc [OPTIONS] [FILE]        read FILE (or stdin), print a listing
//!
//!   --emit list|vax|summary      output kind (default: list)
//!   --no-spread                  disable Branch Spreading
//!   --predict MODE               taken | not-taken | btfnt | ftbnt
//!   --fold POLICY                fold policy used for listing markers
//! ```
//!
//! Any other flag — the simulator's machine and fault options included —
//! is rejected as unknown.
//!
//! Examples:
//!
//! ```sh
//! echo 'int r; void main(){int i; for(i=0;i<9;i++) r+=i;}' | crispc
//! crispc --emit vax program.c
//! crispc --emit summary --no-spread program.c
//! ```

use std::process::ExitCode;

use crisp_asm::{assemble, listing_of};
use crisp_cc::{compile_crisp_module, compile_vax};
use crisp_cli::{extract_flag, parse_compile, parse_fold, parse_switch, read_input, split_input};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("crispc: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: crispc [--emit list|vax|summary] [OPTIONS] [FILE]");
        return Ok(());
    }
    let emit = extract_flag(&mut raw, "--emit")?.unwrap_or("list".into());
    parse_switch(&mut raw, "--")?; // tolerate a bare separator
    let compile = parse_compile(&mut raw)?;
    let fold_policy = parse_fold(&mut raw)?;
    let (input, rest) = split_input(raw)?;
    if let Some(flag) = rest.first() {
        return Err(format!("unknown flag `{flag}`"));
    }

    let source = read_input(&input)?;

    match emit.as_str() {
        "vax" => {
            let program = compile_vax(&source).map_err(|e| e.to_string())?;
            print!("{}", program.listing());
        }
        "list" => {
            let module = compile_crisp_module(&source, &compile).map_err(|e| e.to_string())?;
            let image = assemble(&module).map_err(|e| e.to_string())?;
            let text = listing_of(&image, fold_policy)
                .map_err(|(addr, e)| format!("disassembly failed at {addr:#x}: {e}"))?;
            print!("{text}");
        }
        "summary" => {
            let module = compile_crisp_module(&source, &compile).map_err(|e| e.to_string())?;
            let image = assemble(&module).map_err(|e| e.to_string())?;
            println!("code bytes    : {}", image.code_bytes());
            println!("parcels       : {}", image.parcels.len());
            println!("data blocks   : {}", image.data.len());
            println!("entry         : {:#06x}", image.entry);
            println!("symbols       :");
            for (name, addr) in &image.symbols {
                if !name.starts_with('.') {
                    println!("  {addr:#06x}  {name}");
                }
            }
        }
        other => return Err(format!("unknown --emit kind `{other}`")),
    }
    Ok(())
}
