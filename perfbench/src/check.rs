//! Output checks computed apart from the program: lower bounds in `u128`,
//! orderings the method must obey, and a naive matmul.
//!
//! Every check returns `Err(reason)` on a violation; the workloads count
//! an operation with any violation as failed.

use fusecu::ir::{FuseLink, MatMul, NodeId};
use fusecu::sim::Matrix;

pub type Check = Result<(), String>;

fn elems(rows: u64, cols: u64) -> u128 {
    u128::from(rows) * u128::from(cols)
}

/// Memory-access lower bound of one matmul: every element of `A`, `B`
/// and `C` crosses the memory boundary at least once.
pub fn mm_bound(mm: MatMul) -> u128 {
    elems(mm.m(), mm.k()) + elems(mm.k(), mm.l()) + elems(mm.m(), mm.l())
}

/// Lower bound of a fused chain `mms[0] → mms[1] → …`: only the external
/// tensors (first input, every weight, last output) must move.
pub fn chain_bound(mms: &[MatMul]) -> u128 {
    let (first, last) = (mms[0], mms[mms.len() - 1]);
    elems(first.m(), first.k())
        + mms.iter().map(|mm| elems(mm.k(), mm.l())).sum::<u128>()
        + elems(last.m(), last.l())
}

/// Lower bound of a matmul DAG under any fusion plan: every weight moves
/// once per instance, and a node's input (output) may stay on chip only
/// if a fusable link feeds (drains) it.
pub fn dag_bound(nodes: &[(NodeId, MatMul, u64)], links: &[FuseLink]) -> u128 {
    nodes
        .iter()
        .enumerate()
        .map(|(i, (_, mm, count))| {
            let fed = links.iter().any(|l| l.consumer == i);
            let drained = links.iter().any(|l| l.producer == i);
            let mut b = elems(mm.k(), mm.l());
            if !fed {
                b += elems(mm.m(), mm.k());
            }
            if !drained {
                b += elems(mm.m(), mm.l());
            }
            b * u128::from(*count)
        })
        .sum()
}

/// A reported memory access must not undercut its lower bound.
pub fn ma_at_least(what: &str, ma: u128, bound: u128) -> Check {
    if ma < bound {
        return Err(format!("{what}: MA {ma} is below its lower bound {bound}"));
    }
    Ok(())
}

/// No schedule finishes faster than every PE busy on every cycle.
pub fn cycles_cover_macs(what: &str, cycles: u64, macs: u64, total_pes: u64) -> Check {
    if u128::from(cycles) * u128::from(total_pes) < u128::from(macs) {
        return Err(format!(
            "{what}: {cycles} cycles cannot hold {macs} MACs on {total_pes} PEs"
        ));
    }
    Ok(())
}

/// The one-shot principles never lose to the exhaustive oracle, and the
/// oracle never loses to the genetic searcher over the same space.
pub fn search_order(principle: u64, exhaustive: u64, genetic: Option<u64>) -> Check {
    if principle > exhaustive {
        return Err(format!(
            "principle MA {principle} exceeds the exhaustive MA {exhaustive}"
        ));
    }
    if let Some(genetic) = genetic {
        if exhaustive > genetic {
            return Err(format!(
                "exhaustive MA {exhaustive} exceeds the genetic MA {genetic}"
            ));
        }
    }
    Ok(())
}

/// Plain triple-loop product over copies of the operands.
pub fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, l) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k, "inner dimensions must agree");
    let av: Vec<i64> = (0..m * k).map(|i| a[(i / k, i % k)]).collect();
    let bv: Vec<i64> = (0..k * l).map(|i| b[(i / l, i % l)]).collect();
    let mut c = vec![0i64; m * l];
    for i in 0..m {
        let row = &mut c[i * l..(i + 1) * l];
        for (kk, &x) in av[i * k..(i + 1) * k].iter().enumerate() {
            for (acc, &y) in row.iter_mut().zip(&bv[kk * l..(kk + 1) * l]) {
                *acc += x * y;
            }
        }
    }
    Matrix::from_fn(m, l, |i, j| c[i * l + j])
}

/// A simulator product must equal the reference product element for
/// element.
pub fn product_matches(what: &str, got: &Matrix, want: &Matrix) -> Check {
    if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
        return Err(format!(
            "{what}: product is {}x{}, expected {}x{}",
            got.rows(),
            got.cols(),
            want.rows(),
            want.cols()
        ));
    }
    for r in 0..want.rows() {
        for c in 0..want.cols() {
            if got[(r, c)] != want[(r, c)] {
                return Err(format!(
                    "{what}: element ({r},{c}) is {}, expected {}",
                    got[(r, c)],
                    want[(r, c)]
                ));
            }
        }
    }
    Ok(())
}

/// Measured traffic must equal the traffic the optimizer reported.
pub fn traffic_matches(what: &str, measured: u64, reported: u64) -> Check {
    if measured != reported {
        return Err(format!(
            "{what}: measured traffic {measured} differs from the reported MA {reported}"
        ));
    }
    Ok(())
}

/// The MA of an `ok ma <n> ...` reply payload, read as `u128` so a value
/// the program could only print by widening is still accepted.
pub fn reply_ma(payload: &str) -> Option<u128> {
    let mut toks = payload.split_whitespace();
    match (toks.next(), toks.next(), toks.next()) {
        (Some("ok"), Some("ma"), Some(n)) => n.parse().ok(),
        _ => None,
    }
}

/// A serve reply is sound when it is a typed error or an `ok ma` value no
/// smaller than the request's bound. Other `ok` payloads (`infeasible`,
/// `pong`) carry no MA and pass.
pub fn reply_sound(payload: &str, bound: u128) -> Check {
    if payload.starts_with("err ") {
        return Ok(());
    }
    if !payload.starts_with("ok ") {
        return Err(format!("malformed reply payload {payload:?}"));
    }
    match reply_ma(payload) {
        Some(ma) => ma_at_least("reply", ma, bound),
        None if payload.starts_with("ok ma ") => Err(format!("unparsable MA in {payload:?}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_product_element_is_rejected() {
        let a = Matrix::pseudo_random(5, 7, 1);
        let b = Matrix::pseudo_random(7, 3, 2);
        let want = naive_matmul(&a, &b);
        assert_eq!(want, a.matmul(&b));
        assert!(product_matches("p", &want, &want).is_ok());
        let mut bad = want.clone();
        bad[(2, 1)] += 1;
        assert!(product_matches("p", &bad, &want).is_err());
    }

    #[test]
    fn ma_below_bound_is_rejected() {
        let mm = MatMul::new(4, 5, 6);
        let bound = mm_bound(mm);
        assert_eq!(bound, 20 + 30 + 24);
        assert!(ma_at_least("op", bound, bound).is_ok());
        assert!(ma_at_least("op", bound - 1, bound).is_err());
    }

    #[test]
    fn principle_above_exhaustive_is_rejected() {
        assert!(search_order(10, 10, Some(12)).is_ok());
        assert!(search_order(11, 10, Some(12)).is_err());
        assert!(search_order(10, 13, Some(12)).is_err());
        assert!(search_order(10, 13, None).is_ok());
    }

    #[test]
    fn cycles_below_mac_floor_are_rejected() {
        let pes = 128 * 128 * 4;
        assert!(cycles_cover_macs("s", 10, 10 * pes, pes).is_ok());
        assert!(cycles_cover_macs("s", 9, 10 * pes, pes).is_err());
    }

    #[test]
    fn measured_traffic_must_equal_reported() {
        assert!(traffic_matches("t", 7, 7).is_ok());
        assert!(traffic_matches("t", 7, 8).is_err());
    }

    #[test]
    fn overflow_probe_checker_accepts_typed_error_and_exact_value() {
        let d = 1u64 << 24;
        let bound = mm_bound(MatMul::new(d, d, d));
        assert_eq!(bound, 3u128 << 48);
        assert!(reply_sound("err overflow", bound).is_ok());
        assert!(reply_sound(&format!("ok ma {bound}"), bound).is_ok());
        let exact = format!(
            "ok ma {} order mkl tiles 1 1 1",
            (2u128 << 72) + (1u128 << 48)
        );
        assert!(reply_sound(&exact, bound).is_ok());
        // The wrapped value a u64 cost model prints today.
        assert!(reply_sound("ok ma 281474976710656", bound).is_err());
        assert!(reply_sound("ok ma 0", chain_bound(&[MatMul::new(d, d, d); 2])).is_err());
        assert!(reply_sound("ok infeasible", bound).is_ok());
        assert!(reply_sound("ok ma x", bound).is_err());
    }

    #[test]
    fn chain_and_dag_bounds_count_external_tensors_only() {
        let p = MatMul::new(8, 4, 6);
        let c = MatMul::new(8, 6, 2);
        assert_eq!(chain_bound(&[p, c]), 32 + 24 + 12 + 16);
        let nodes = [(NodeId(0), p, 3), (NodeId(1), c, 3)];
        let link = [FuseLink {
            producer: 0,
            consumer: 1,
        }];
        assert_eq!(dag_bound(&nodes, &link), 3 * chain_bound(&[p, c]));
        assert_eq!(dag_bound(&nodes, &[]), 3 * (mm_bound(p) + mm_bound(c)));
    }
}
