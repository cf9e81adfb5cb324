//! §6 walkthrough: why port-based VPN identification vastly undercounts.
//!
//! Builds the synthetic CT-log/forward-DNS corpus, runs the paper's
//! `*vpn*` domain procedure step by step, and then classifies one week of
//! IXP-CE traffic with both methods to show the invisible-VPN share.
//!
//! ```sh
//! cargo run --release --example vpn_detection
//! ```

use lockdown::analysis::vpn::{is_port_vpn, VpnClassifier};
use lockdown::core::{Context, Fidelity};
use lockdown::topology::dns::vpn::identify_vpn_ips;
use lockdown::topology::vantage::VantagePoint;
use lockdown_flow::time::Date;

fn main() {
    let ctx = Context::new(Fidelity::Standard);

    // Step 1-3: the domain-based identification procedure.
    let id = identify_vpn_ips(&ctx.corpus.db);
    println!("§6 domain-based VPN identification");
    println!("  corpus size:          {} names", ctx.corpus.db.len());
    println!(
        "  *vpn* candidates:     {} domains",
        id.candidate_domains.len()
    );
    println!("  candidate addresses:  {}", id.raw_candidate_ips.len());
    println!(
        "  eliminated (www-shared): {} — the conservative step",
        id.eliminated_ips.len()
    );
    println!("  final VPN endpoints:  {}", id.vpn_ips.len());
    for d in id.candidate_domains.iter().take(5) {
        println!("    e.g. {d}");
    }

    // Ground-truth check (the paper could not do this; a simulation can).
    let truth = &ctx.corpus.truth;
    let found = truth
        .discoverable()
        .iter()
        .filter(|ip| id.vpn_ips.contains(ip))
        .count();
    println!(
        "  ground truth: {}/{} discoverable gateways found; {} hidden behind www-shared IPs",
        found,
        truth.discoverable().len(),
        truth.shared_with_www.len()
    );

    // Step 4: classify one pre-lockdown and one lockdown week of traffic.
    let classifier = VpnClassifier::new(id.vpn_ips);
    let generator = ctx.generator();
    let report = |label: &str, monday: Date| {
        let (mut port_bytes, mut domain_bytes) = (0u64, 0u64);
        for day in 0..7 {
            let date = monday.add_days(day);
            for hour in 0..24 {
                for f in generator.generate_hour(VantagePoint::IxpCe, date, hour) {
                    if is_port_vpn(&f) {
                        port_bytes += f.bytes;
                    } else if classifier.is_domain_vpn(&f) {
                        domain_bytes += f.bytes;
                    }
                }
            }
        }
        println!(
            "  {label}: port-identified {port_bytes:>16} B, domain-identified {domain_bytes:>16} B"
        );
        (port_bytes, domain_bytes)
    };
    println!("\nVPN traffic at IXP-CE, two identification methods:");
    let (p0, d0) = report("base week    (Feb 17)", Date::new(2020, 2, 17));
    let (p1, d1) = report("lockdown week(Mar 23)", Date::new(2020, 3, 23));
    println!(
        "\n  port-based growth:   {:+.1}%  — 'almost no change'",
        (p1 as f64 / p0 as f64 - 1.0) * 100.0
    );
    println!(
        "  domain-based growth: {:+.1}%  — the surge port counting misses",
        (d1 as f64 / d0 as f64 - 1.0) * 100.0
    );
}
