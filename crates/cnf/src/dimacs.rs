//! DIMACS CNF reading and writing.
//!
//! The dialect understood here is the one used by the original UniGen /
//! ApproxMC tool chain:
//!
//! * the standard `p cnf <vars> <clauses>` header and `… 0`-terminated
//!   clauses,
//! * CryptoMiniSAT-style xor clauses: lines starting with `x`, where negating
//!   any literal flips the required parity (`x 1 2 0` means `x1 ⊕ x2 = 1`,
//!   `x -1 2 0` means `x1 ⊕ x2 = 0`),
//! * sampling-set declarations in comments: `c ind 3 7 12 0` (possibly split
//!   across several `c ind` lines), as produced by the UniGen benchmark
//!   suites.
//!
//! # Example
//!
//! ```
//! use unigen_cnf::dimacs;
//!
//! # fn main() -> Result<(), unigen_cnf::CnfError> {
//! let text = "c ind 1 2 0\np cnf 3 2\n1 -2 0\nx 2 3 0\n";
//! let formula = dimacs::parse(text)?;
//! assert_eq!(formula.num_vars(), 3);
//! assert_eq!(formula.num_clauses(), 1);
//! assert_eq!(formula.num_xor_clauses(), 1);
//! assert_eq!(formula.sampling_set().unwrap().len(), 2);
//! let roundtrip = dimacs::parse(&dimacs::to_dimacs_string(&formula))?;
//! assert_eq!(formula, roundtrip);
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::{CnfError, CnfFormula, Lit, Var, XorClause};

/// The largest DIMACS variable id: [`Var`] holds indices up to
/// `u32::MAX / 2`, and DIMACS ids are one-based.
const MAX_DIMACS_VAR: usize = (u32::MAX / 2) as usize + 1;

/// The largest variable count a `p cnf` header may declare: 2^20.
///
/// A formula allocates per declared variable before any clause is read
/// (the full-support sampling set alone is 4 bytes a variable), so a
/// header of a few bytes must not be able to ask for gigabytes. 2^20
/// covers every in-tree generator (the largest benchmark instance,
/// treemax-like, has 4 570 variables) and the paper's largest benchmarks,
/// which have hundreds of thousands of variables.
const MAX_DIMACS_VARS: usize = 1 << 20;

/// Rejects a variable id (or a literal's magnitude) beyond [`Var`]'s range
/// before it reaches the panicking constructors.
fn check_id(id: u64, line: usize) -> Result<(), CnfError> {
    if id > MAX_DIMACS_VAR as u64 {
        return Err(CnfError::ParseDimacs {
            line,
            message: format!("variable {id} exceeds the largest supported id {MAX_DIMACS_VAR}"),
        });
    }
    Ok(())
}

/// Parses a DIMACS CNF document from a string.
///
/// # Errors
///
/// Returns [`CnfError::ParseDimacs`] when the input is malformed or its
/// header declares more than 2^20 variables, and
/// [`CnfError::VariableOutOfRange`] / [`CnfError::SamplingVarOutOfRange`]
/// when clauses or the sampling set mention undeclared variables.
pub fn parse(input: &str) -> Result<CnfFormula, CnfError> {
    let mut formula: Option<CnfFormula> = None;
    let mut sampling: Vec<Var> = Vec::new();
    let mut pending_clauses: Vec<Vec<Lit>> = Vec::new();
    let mut pending_xors: Vec<XorClause> = Vec::new();

    for (line_no, raw_line) in input.lines().enumerate() {
        let line_no = line_no + 1;
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('c') {
            // Comment; may carry a sampling-set declaration.
            let rest = rest.trim();
            if let Some(ind) = rest.strip_prefix("ind") {
                for token in ind.split_whitespace() {
                    let value: i64 = token.parse().map_err(|_| CnfError::ParseDimacs {
                        line: line_no,
                        message: format!("invalid sampling-set token `{token}`"),
                    })?;
                    if value == 0 {
                        break;
                    }
                    if value < 0 {
                        return Err(CnfError::ParseDimacs {
                            line: line_no,
                            message: "sampling-set variables must be positive".to_string(),
                        });
                    }
                    check_id(value.unsigned_abs(), line_no)?;
                    sampling.push(Var::from_dimacs(value as usize));
                }
            }
            continue;
        }
        if line.starts_with('p') {
            if formula.is_some() {
                return Err(CnfError::ParseDimacs {
                    line: line_no,
                    message: "duplicate problem line".to_string(),
                });
            }
            let mut tokens = line.split_whitespace();
            let _p = tokens.next();
            let kind = tokens.next().unwrap_or("");
            if kind != "cnf" {
                return Err(CnfError::ParseDimacs {
                    line: line_no,
                    message: format!("unsupported problem kind `{kind}` (expected `cnf`)"),
                });
            }
            let vars: usize = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                CnfError::ParseDimacs {
                    line: line_no,
                    message: "missing or invalid variable count".to_string(),
                }
            })?;
            if vars > MAX_DIMACS_VARS {
                return Err(CnfError::ParseDimacs {
                    line: line_no,
                    message: format!(
                        "{vars} variables exceed the supported maximum {MAX_DIMACS_VARS}"
                    ),
                });
            }
            // The clause count must be present but is advisory: many real
            // benchmark files get it wrong (picosat and CryptoMiniSAT accept
            // them too).
            let _clauses: usize = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                CnfError::ParseDimacs {
                    line: line_no,
                    message: "missing or invalid clause count".to_string(),
                }
            })?;
            formula = Some(CnfFormula::new(vars));
            continue;
        }

        // Clause or xor-clause line.
        let (is_xor, body) = match line.strip_prefix('x') {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let mut values: Vec<i64> = Vec::new();
        let mut terminated = false;
        for token in body.split_whitespace() {
            let value: i64 = token.parse().map_err(|_| CnfError::ParseDimacs {
                line: line_no,
                message: format!("invalid literal `{token}`"),
            })?;
            if value == 0 {
                terminated = true;
                break;
            }
            check_id(value.unsigned_abs(), line_no)?;
            values.push(value);
        }
        if !terminated {
            return Err(CnfError::ParseDimacs {
                line: line_no,
                message: "clause is not terminated by 0".to_string(),
            });
        }
        if is_xor {
            // Negating any literal flips the parity; start from rhs = true.
            let mut rhs = true;
            let vars: Vec<Var> = values
                .iter()
                .map(|&v| {
                    if v < 0 {
                        rhs = !rhs;
                    }
                    Var::from_dimacs(v.unsigned_abs() as usize)
                })
                .collect();
            pending_xors.push(XorClause::new(vars, rhs));
        } else {
            pending_clauses.push(values.into_iter().map(Lit::from_dimacs).collect());
        }
    }

    let mut formula = formula.ok_or(CnfError::ParseDimacs {
        line: 0,
        message: "missing `p cnf` problem line".to_string(),
    })?;

    for lits in pending_clauses {
        formula.add_clause(lits)?;
    }
    for xor in pending_xors {
        formula.add_xor_clause(xor)?;
    }
    formula.set_sampling_set(sampling)?;
    Ok(formula)
}

/// Reads and parses a DIMACS CNF file.
///
/// # Errors
///
/// Returns [`CnfError::Io`] if the file cannot be read, otherwise the same
/// errors as [`parse`].
pub fn parse_file<P: AsRef<Path>>(path: P) -> Result<CnfFormula, CnfError> {
    let text = fs::read_to_string(path)?;
    parse(&text)
}

/// Serialises a formula to a DIMACS CNF string.
///
/// The sampling set (if any) is emitted as `c ind … 0` comment lines before
/// the problem line, and xor constraints are emitted as CryptoMiniSAT-style
/// `x …` lines.
pub fn to_dimacs_string(formula: &CnfFormula) -> String {
    let mut out = String::new();
    if let Some(set) = formula.sampling_set() {
        // Split long sampling sets over multiple lines of at most ten
        // variables each, the convention used by the UniGen benchmark suite.
        for chunk in set.chunks(10) {
            out.push_str("c ind");
            for v in chunk {
                let _ = write!(out, " {v}");
            }
            out.push_str(" 0\n");
        }
    }
    // Degenerate xor constraints have no faithful `x …` encoding: an empty
    // constraint with rhs = 0 is a tautology (dropped), one with rhs = 1 is a
    // contradiction (emitted as the empty CNF clause).
    let emitted_xors: Vec<_> = formula
        .xor_clauses()
        .iter()
        .filter(|x| !x.is_trivially_true())
        .collect();
    let _ = writeln!(
        out,
        "p cnf {} {}",
        formula.num_vars(),
        formula.num_clauses() + emitted_xors.len()
    );
    for clause in formula.clauses() {
        let _ = writeln!(out, "{clause}");
    }
    for xor in emitted_xors {
        if xor.is_trivially_false() {
            let _ = writeln!(out, "0");
        } else {
            let _ = writeln!(out, "{xor}");
        }
    }
    out
}

/// Writes a formula to a DIMACS CNF file.
///
/// # Errors
///
/// Returns [`CnfError::Io`] if the file cannot be written.
pub fn write_file<P: AsRef<Path>>(formula: &CnfFormula, path: P) -> Result<(), CnfError> {
    fs::write(path, to_dimacs_string(formula))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    #[test]
    fn parse_minimal() {
        let f = parse("p cnf 2 1\n1 -2 0\n").unwrap();
        assert_eq!(f.num_vars(), 2);
        assert_eq!(f.num_clauses(), 1);
        assert!(f.sampling_set().is_none());
    }

    #[test]
    fn parse_handles_comments_and_blank_lines() {
        let f = parse("c hello\n\np cnf 1 1\nc mid comment\n1 0\n").unwrap();
        assert_eq!(f.num_clauses(), 1);
    }

    #[test]
    fn parse_reads_sampling_set_over_multiple_lines() {
        let text = "c ind 1 2 0\nc ind 4 0\np cnf 5 1\n1 0\n";
        let f = parse(text).unwrap();
        let set: Vec<usize> = f
            .sampling_set()
            .unwrap()
            .iter()
            .map(|v| v.to_dimacs())
            .collect();
        assert_eq!(set, vec![1, 2, 4]);
    }

    #[test]
    fn parse_xor_polarity() {
        let f = parse("p cnf 3 2\nx 1 2 0\nx -1 3 0\n").unwrap();
        assert_eq!(f.num_xor_clauses(), 2);
        assert!(f.xor_clauses()[0].rhs());
        assert!(!f.xor_clauses()[1].rhs());
        // Double negation flips the parity back.
        let g = parse("p cnf 3 1\nx -1 -3 0\n").unwrap();
        assert!(g.xor_clauses()[0].rhs());
    }

    #[test]
    fn parse_rejects_missing_terminator() {
        let err = parse("p cnf 2 1\n1 -2\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 2, .. }));
    }

    #[test]
    fn parse_rejects_missing_header() {
        let err = parse("1 -2 0\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { .. }));
    }

    #[test]
    fn parse_rejects_bad_problem_kind() {
        let err = parse("p wcnf 2 1\n1 0\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_out_of_range_variable() {
        let err = parse("p cnf 2 1\n3 0\n").unwrap_err();
        assert!(matches!(err, CnfError::VariableOutOfRange { .. }));
    }

    #[test]
    fn parse_rejects_non_numeric_variable_count() {
        let err = parse("p cnf abc 1\n1 0\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_missing_clause_count() {
        let err = parse("p cnf 2\n1 0\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_bare_problem_keyword() {
        let err = parse("p\n1 0\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_duplicate_problem_line() {
        let err = parse("p cnf 2 1\np cnf 2 1\n1 0\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 2, .. }));
    }

    #[test]
    fn parse_rejects_out_of_range_xor_variable() {
        let err = parse("p cnf 2 1\nx 1 5 0\n").unwrap_err();
        assert!(matches!(err, CnfError::VariableOutOfRange { .. }));
    }

    #[test]
    fn parse_rejects_out_of_range_negated_literal() {
        let err = parse("p cnf 2 1\n-4 0\n").unwrap_err();
        assert!(matches!(err, CnfError::VariableOutOfRange { .. }));
    }

    #[test]
    fn parse_rejects_non_numeric_literal() {
        let err = parse("p cnf 2 1\n1 foo 0\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 2, .. }));
    }

    #[test]
    fn parse_rejects_truncated_xor_clause() {
        let err = parse("p cnf 3 1\nx 1 2\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 2, .. }));
    }

    #[test]
    fn parse_rejects_truncated_clause_at_end_of_file() {
        // The final clause loses its `0` terminator mid-stream — the shape a
        // truncated download or interrupted write produces.
        let err = parse("p cnf 3 2\n1 -2 0\n2 3").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 3, .. }));
    }

    #[test]
    fn parse_rejects_negative_sampling_variable() {
        let err = parse("c ind -1 0\np cnf 2 1\n1 0\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_non_numeric_sampling_token() {
        let err = parse("c ind one 0\np cnf 2 1\n1 0\n").unwrap_err();
        assert!(matches!(err, CnfError::ParseDimacs { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_out_of_range_sampling_variable() {
        let err = parse("c ind 9 0\np cnf 2 1\n1 0\n").unwrap_err();
        assert!(matches!(err, CnfError::SamplingVarOutOfRange { .. }));
    }

    #[test]
    fn parse_rejects_ids_beyond_the_variable_range() {
        // `Var` holds DIMACS ids up to 2^31; one past it is a typed error
        // on its own line in each of the four places an id appears.
        for (text, line) in [
            ("p cnf 2147483649 1\n1 0\n", 1),
            ("p cnf 3 1\n5000000000 0\n", 2),
            ("p cnf 3 1\n1 -2147483649 0\n", 2),
            ("p cnf 3 1\nx 1 2147483649 0\n", 2),
            ("c ind 4000000000 0\np cnf 3 1\n1 0\n", 1),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                matches!(err, CnfError::ParseDimacs { line: l, .. } if l == line),
                "{text:?}: {err:?}"
            );
        }
        // The largest id itself is in range (and then undeclared).
        let err = parse("p cnf 3 1\n2147483648 0\n").unwrap_err();
        assert!(
            matches!(err, CnfError::VariableOutOfRange { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn header_variable_count_is_bounded() {
        let f = parse(&format!("p cnf {MAX_DIMACS_VARS} 1\n1 0\n")).unwrap();
        assert_eq!(f.num_vars(), MAX_DIMACS_VARS);
        for vars in [MAX_DIMACS_VARS + 1, 2_000_000_000] {
            let err = parse(&format!("p cnf {vars} 1\n1 0\n")).unwrap_err();
            assert!(
                matches!(err, CnfError::ParseDimacs { line: 1, .. }),
                "{vars}: {err:?}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_semantics_and_metadata() {
        let text = "c ind 1 3 0\np cnf 4 3\n1 -2 0\n-3 4 0\nx 1 4 0\n";
        let f = parse(text).unwrap();
        let g = parse(&to_dimacs_string(&f)).unwrap();
        assert_eq!(f, g);
        // Same models under brute force.
        for mask in 0u64..16 {
            let model = Model::new((0..4).map(|i| mask & (1 << i) != 0).collect());
            assert_eq!(f.evaluate(&model), g.evaluate(&model));
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("unigen_cnf_dimacs_test.cnf");
        let f = parse("c ind 2 0\np cnf 2 1\n1 2 0\n").unwrap();
        write_file(&f, &path).unwrap();
        let g = parse_file(&path).unwrap();
        assert_eq!(f, g);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn degenerate_xor_clauses_serialise_semantically() {
        use crate::XorClause;
        // A fully-cancelled xor with rhs = 0 is a tautology: it disappears
        // from the output without changing the model set.
        let mut tautology = CnfFormula::new(2);
        tautology.add_clause([Lit::from_dimacs(1)]).unwrap();
        tautology
            .add_xor_clause(XorClause::from_dimacs([2, 2], false))
            .unwrap();
        let reparsed = parse(&to_dimacs_string(&tautology)).unwrap();
        assert_eq!(
            tautology.enumerate_models_brute_force(),
            reparsed.enumerate_models_brute_force()
        );

        // One with rhs = 1 is a contradiction: it becomes the empty clause.
        let mut contradiction = CnfFormula::new(1);
        contradiction
            .add_xor_clause(XorClause::from_dimacs([1, 1], true))
            .unwrap();
        let reparsed = parse(&to_dimacs_string(&contradiction)).unwrap();
        assert!(reparsed.enumerate_models_brute_force().is_empty());
    }

    #[test]
    fn parse_file_missing_is_io_error() {
        let err = parse_file("/definitely/not/a/file.cnf").unwrap_err();
        assert!(matches!(err, CnfError::Io(_)));
    }
}
