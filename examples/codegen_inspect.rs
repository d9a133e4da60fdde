//! Prints the OpenCL C that the extended LIFT code generator produces for
//! every kernel of the paper (Listings 6–8), then the Listing 5 host program
//! of every kernel set a simulation runs — hand-written and generated —
//! with the kernels it launches: the textual artifacts behind Tables I and
//! the §V listings.
//!
//! ```sh
//! cargo run --example codegen_inspect [--double]
//! ```

use room_acoustics_lift::lift::host::emit_host_c;
use room_acoustics_lift::lift::opencl;
use room_acoustics_lift::lift::types::ScalarKind;
use room_acoustics_lift::lift_acoustics::{hostprog, programs};

fn main() {
    let double = std::env::args().any(|a| a == "--double");
    let real = if double { ScalarKind::F64 } else { ScalarKind::F32 };
    println!(
        "// precision: {} (pass --double for f64)\n",
        if double { "double" } else { "single" }
    );
    for p in programs::all_programs() {
        let lk = p.lower(real).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        println!("// ===== {} =====", p.name);
        println!("// NDRange: {:?} (innermost first)", lk.global_size);
        println!("{}", opencl::emit_kernel(&lk.kernel));
    }
    for set in hostprog::all_sets() {
        println!("// ===== Listing 5: one step of `{}` =====", set.name());
        match set.host_program(real) {
            Ok(prog) => println!("{}", emit_host_c(&prog)),
            Err(e) => eprintln!("host generation failed: {e}"),
        }
    }
}
