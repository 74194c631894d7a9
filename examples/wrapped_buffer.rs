//! Circular trace buffers and suffix localization.
//!
//! Real trace buffers wrap: once full, the oldest entries are overwritten
//! and only the newest survive read-out. This example shows how much
//! localization power a wrapped buffer loses as its depth shrinks, using
//! case study 3 (the malformed CPU request).
//!
//! Run with: `cargo run --example wrapped_buffer`

use std::error::Error;

use pstrace::bug::case_studies;
use pstrace::diag::{run_case_study, CaseStudyConfig};
use pstrace::soc::SocModel;

fn main() -> Result<(), Box<dyn Error>> {
    let model = SocModel::t2();
    let cs = &case_studies()[2];

    println!(
        "case study {} — localization vs trace buffer depth\n",
        cs.number
    );
    println!(
        "{:>9} {:>9} {:>12} {:>14} {:>12}",
        "depth", "captured", "consistent", "total paths", "localization"
    );
    for depth in [None, Some(16), Some(8), Some(4), Some(2), Some(1)] {
        let report = run_case_study(
            &model,
            cs,
            CaseStudyConfig {
                buffer_bits: 32,
                packing: true,
                depth,
            },
        )?;
        println!(
            "{:>9} {:>9} {:>12} {:>14} {:>11.2}%",
            depth.map_or_else(|| "inf".to_owned(), |d| d.to_string()),
            report.captured.len(),
            report.localization.consistent,
            report.localization.total,
            report.path_localization() * 100.0
        );
    }
    println!("\nshallower buffers keep fewer records, so more interleaved-flow");
    println!("paths stay consistent with the surviving window — observability");
    println!("budget is depth as well as width.");
    Ok(())
}
