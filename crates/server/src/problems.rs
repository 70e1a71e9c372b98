//! Resolve benchmark problems from their canonical names
//! (`<function>-<dim>d`, e.g. `ackley-12d`) so the client side of a
//! drive can evaluate what the server asks for.

use pbo_problems::synthetic::{SyntheticFn, SyntheticKind};

/// Parse a `<function>-<dim>d` name into the benchmark it denotes.
/// Returns `None` for unknown functions, malformed names or `dim < 2`.
pub fn resolve_problem(name: &str) -> Option<SyntheticFn> {
    let (func, dim) = name.rsplit_once('-')?;
    let digits = dim.strip_suffix('d')?;
    // `usize::parse` also accepts "+3" and leading zeros, which would
    // resolve to a problem whose canonical `name()` differs from the
    // requested one — only canonical spellings may round-trip.
    if digits.is_empty()
        || !digits.bytes().all(|b| b.is_ascii_digit())
        || (digits.len() > 1 && digits.starts_with('0'))
    {
        return None;
    }
    let dim: usize = digits.parse().ok()?;
    if dim < 2 {
        return None;
    }
    let kind = match func {
        "rosenbrock" => SyntheticKind::Rosenbrock,
        "ackley" => SyntheticKind::Ackley,
        "schwefel" => SyntheticKind::Schwefel,
        "rastrigin" => SyntheticKind::Rastrigin,
        "griewank" => SyntheticKind::Griewank,
        "levy" => SyntheticKind::Levy,
        _ => return None,
    };
    Some(SyntheticFn::new(kind, dim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_problems::Problem;

    #[test]
    fn resolves_canonical_names_back_to_themselves() {
        for name in ["ackley-3d", "rosenbrock-12d", "schwefel-2d", "levy-5d"] {
            let p = resolve_problem(name).unwrap();
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn rejects_malformed_names() {
        // The last four resolve under a bare `usize::parse` (it accepts
        // a leading `+` and leading zeros) but break the name
        // round-trip invariant: resolve("ackley-+3d").name() would be
        // "ackley-3d", not the requested spelling.
        for bad in [
            "",
            "ackley",
            "ackley-3",
            "ackley-xd",
            "ackley-1d",
            "warp-3d",
            "3d",
            "ackley-+3d",
            "ackley-03d",
            "ackley-0d",
            "ackley- 3d",
        ] {
            assert!(resolve_problem(bad).is_none(), "{bad} should not resolve");
        }
    }
}
