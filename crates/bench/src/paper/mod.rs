//! The paper's figures and tables, one module each, run by the `paper`
//! driver as `paper <name> --key value …`.
//!
//! Every module's `run` prints the rows or series the paper plots next
//! to a `[paper]` reference line. [`FIGURES`] maps each subcommand name
//! to its `run`.

use crate::Args;

pub mod ablation;
pub mod fig01;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig09a;
pub mod fig09b;
pub mod fig09c;
pub mod fig10;
pub mod fig11a;
pub mod fig11b;
pub mod overhead_tracing;
pub mod table1;
pub mod table6;
pub mod table_configs;

/// A figure's entry point: reads its knobs from the arguments and
/// prints the figure.
pub type Run = fn(&Args);

/// Every subcommand of the `paper` driver, in the paper's order.
pub const FIGURES: [(&str, Run); 15] = [
    ("fig01", fig01::run),
    ("fig03", fig03::run),
    ("fig04", fig04::run),
    ("fig05", fig05::run),
    ("fig09a", fig09a::run),
    ("fig09b", fig09b::run),
    ("fig09c", fig09c::run),
    ("fig10", fig10::run),
    ("fig11a", fig11a::run),
    ("fig11b", fig11b::run),
    ("table1", table1::run),
    ("table6", table6::run),
    ("table-configs", table_configs::run),
    ("overhead-tracing", overhead_tracing::run),
    ("ablation", ablation::run),
];
