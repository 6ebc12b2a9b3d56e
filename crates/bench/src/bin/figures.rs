//! Prints the paper's figures and tables (see `rum_bench::figures`).
//!
//! Usage: `figures <fig1|fig6|fig7|fig8|table1|barrier|pktio|all> [n]`: `n`
//! flows or rules (defaults: 300; 1400 for `table1`; `pktio` takes none).
//! `all` prints the seven in that order.

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let figures = rum_bench::figures::select(args.get(1).map_or("", String::as_str));
    let n = args.get(2).map(|s| s.parse::<usize>().ok());
    if figures.is_empty() || n == Some(None) {
        eprintln!("usage: figures <fig1|fig6|fig7|fig8|table1|barrier|pktio|all> [n]");
        std::process::exit(2);
    }
    let mut out = std::io::stdout().lock();
    for draw in figures {
        draw(n.flatten(), &mut out)?;
    }
    Ok(())
}
