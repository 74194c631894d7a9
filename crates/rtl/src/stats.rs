//! Structural netlist analysis and Graphviz export.
//!
//! Selection methods behave very differently depending on netlist
//! structure (shift chains restore well, wide AND cones justify poorly,
//! hubs attract PageRank); these statistics make that structure visible
//! and are printed alongside the Table 4 comparison.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::netlist::{Driver, Netlist, SignalId};

/// Structural statistics of a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistStats {
    /// Total signal count.
    pub signals: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Flip-flops.
    pub flops: usize,
    /// Combinational gates by kind name (`and`, `or`, `not`, `xor`,
    /// `mux`, `const`).
    pub gates: HashMap<&'static str, usize>,
    /// Deepest combinational cone (gates on the longest input/flop-to-
    /// signal path).
    pub max_cone_depth: usize,
    /// Largest fanout of any signal.
    pub max_fanout: usize,
}

/// Computes [`NetlistStats`] for `netlist`.
///
/// # Examples
///
/// ```
/// use pstrace_rtl::{netlist_stats, UsbDesign};
///
/// let usb = UsbDesign::new();
/// let stats = netlist_stats(&usb.netlist);
/// assert!(stats.flops >= 30);
/// assert!(stats.max_cone_depth >= 2);
/// ```
#[must_use]
pub fn netlist_stats(netlist: &Netlist) -> NetlistStats {
    let mut gates: HashMap<&'static str, usize> = HashMap::new();
    let mut inputs = 0;
    let mut flops = 0;
    for s in netlist.signals() {
        match netlist.driver(s) {
            Driver::Input => inputs += 1,
            Driver::Ff { .. } => flops += 1,
            Driver::Const(_) => *gates.entry("const").or_insert(0) += 1,
            Driver::And(_) => *gates.entry("and").or_insert(0) += 1,
            Driver::Or(_) => *gates.entry("or").or_insert(0) += 1,
            Driver::Not(_) => *gates.entry("not").or_insert(0) += 1,
            Driver::Xor(..) => *gates.entry("xor").or_insert(0) += 1,
            Driver::Mux { .. } => *gates.entry("mux").or_insert(0) += 1,
        }
    }

    // Combinational depth per signal (0 at inputs/flops/consts).
    let mut depth = vec![0usize; netlist.signal_count()];
    for &s in netlist.comb_order() {
        depth[s.index()] = netlist
            .fanin(s)
            .iter()
            .map(|i| depth[i.index()])
            .max()
            .unwrap_or(0)
            + 1;
    }
    let max_cone_depth = depth.iter().copied().max().unwrap_or(0);

    let mut fanout = vec![0usize; netlist.signal_count()];
    for s in netlist.signals() {
        for i in netlist.fanin(s) {
            fanout[i.index()] += 1;
        }
    }
    let max_fanout = fanout.iter().copied().max().unwrap_or(0);

    NetlistStats {
        signals: netlist.signal_count(),
        inputs,
        flops,
        gates,
        max_cone_depth,
        max_fanout,
    }
}

/// Renders a netlist as a DOT digraph: inputs as triangles, flops as
/// boxes, gates as ellipses labeled with their kind.
#[must_use]
pub fn netlist_to_dot(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", netlist.name());
    let _ = writeln!(out, "  rankdir=LR;");
    for s in netlist.signals() {
        let (shape, label): (&str, String) = match netlist.driver(s) {
            Driver::Input => ("triangle", netlist.signal_name(s).to_owned()),
            Driver::Ff { .. } => ("box", format!("{} (ff)", netlist.signal_name(s))),
            Driver::Const(v) => ("plaintext", format!("{v}")),
            Driver::And(_) => ("ellipse", format!("{} &", netlist.signal_name(s))),
            Driver::Or(_) => ("ellipse", format!("{} |", netlist.signal_name(s))),
            Driver::Not(_) => ("ellipse", format!("{} !", netlist.signal_name(s))),
            Driver::Xor(..) => ("ellipse", format!("{} ^", netlist.signal_name(s))),
            Driver::Mux { .. } => ("trapezium", format!("{} mux", netlist.signal_name(s))),
        };
        let _ = writeln!(out, "  {} [shape={shape}, label=\"{label}\"];", s.index());
    }
    for s in netlist.signals() {
        for i in netlist.fanin(s) {
            let _ = writeln!(out, "  {} -> {};", i.index(), s.index());
        }
    }
    out.push_str("}\n");
    out
}

/// Fanout of each signal, indexable by [`SignalId::index`].
#[must_use]
pub fn fanout_counts(netlist: &Netlist) -> Vec<usize> {
    let mut fanout = vec![0usize; netlist.signal_count()];
    for s in netlist.signals() {
        for i in netlist.fanin(s) {
            fanout[i.index()] += 1;
        }
    }
    fanout
}

/// The `count` signals with the largest fanout, descending.
#[must_use]
pub fn fanout_hubs(netlist: &Netlist, count: usize) -> Vec<(SignalId, usize)> {
    let fanout = fanout_counts(netlist);
    let mut hubs: Vec<(SignalId, usize)> =
        netlist.signals().map(|s| (s, fanout[s.index()])).collect();
    hubs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hubs.truncate(count);
    hubs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::usb::UsbDesign;

    fn small() -> Netlist {
        let mut b = NetlistBuilder::new("small");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and("x", &[a, c]);
        let y = b.not("y", x);
        let q = b.ff("q", y);
        let _ = b.xor("z", q, a);
        b.build().unwrap()
    }

    #[test]
    fn stats_count_by_kind() {
        let nl = small();
        let stats = netlist_stats(&nl);
        assert_eq!(stats.signals, 6);
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.flops, 1);
        assert_eq!(stats.gates["and"], 1);
        assert_eq!(stats.gates["not"], 1);
        assert_eq!(stats.gates["xor"], 1);
        assert_eq!(stats.gates.values().sum::<usize>(), 3);
        // a -> x -> y: depth 2; z over flop boundary: depth 1.
        assert_eq!(stats.max_cone_depth, 2);
        // `a` feeds x and z.
        assert_eq!(stats.max_fanout, 2);
    }

    #[test]
    fn usb_stats_are_substantial() {
        let usb = UsbDesign::new();
        let stats = netlist_stats(&usb.netlist);
        assert!(
            stats.flops >= 80,
            "decoys + decoder + rings: {}",
            stats.flops
        );
        assert!(stats.max_fanout >= 10, "rx_valid is a hub");
        assert!(stats.max_cone_depth >= 2);
    }

    #[test]
    fn hubs_are_sorted_descending() {
        let usb = UsbDesign::new();
        let hubs = fanout_hubs(&usb.netlist, 5);
        assert_eq!(hubs.len(), 5);
        for w in hubs.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The top hub is one of the shift-enable valid signals.
        let name = usb.netlist.signal_name(hubs[0].0);
        assert!(name.contains("valid"), "top hub is {name}");
    }

    #[test]
    fn dot_mentions_every_signal() {
        let nl = small();
        let dot = netlist_to_dot(&nl);
        assert!(dot.contains("digraph"));
        for name in ["a", "c", "x", "y", "q", "z"] {
            assert!(dot.contains(name));
        }
        assert!(dot.contains("(ff)"));
        assert!(dot.contains("->"));
    }
}
