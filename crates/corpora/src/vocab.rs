//! Vocabulary domains and format variants.
//!
//! A [`Domain`] is an infinite, deterministic family of entity strings:
//! `domain.value(i)` is the `i`-th entity, injective in `i`. Corpus
//! generators carve disjoint index ranges out of a domain to build value
//! universes that *look* alike (same shape, same token vocabulary) without
//! overlapping — the raw material for both joinable pairs (shared ranges)
//! and semantically-similar distractors (disjoint ranges).
//!
//! A [`Variant`] is a formatting transformation applied to a whole column —
//! the "semantically joinable but not syntactically equal" mechanism of
//! the paper's problem statement. Variants are chosen so the AlphaNum key
//! normalization (and token-level embeddings) can still align values.

use wg_util::hash::{combine64, mix64};

const ADJECTIVES: &[&str] = &[
    "Global",
    "United",
    "Advanced",
    "Pacific",
    "Northern",
    "Dynamic",
    "Premier",
    "Apex",
    "Quantum",
    "Sterling",
    "Pioneer",
    "Summit",
    "Coastal",
    "Evergreen",
    "Crimson",
    "Golden",
    "Silver",
    "Atlas",
    "Nova",
    "Vertex",
    "Prime",
    "Central",
    "Allied",
    "Integrated",
    "National",
    "Metro",
    "Urban",
    "Rural",
    "Eastern",
    "Western",
    "Superior",
    "Frontier",
];

const COMPANY_NOUNS: &[&str] = &[
    "Dynamics",
    "Systems",
    "Industries",
    "Holdings",
    "Logistics",
    "Networks",
    "Analytics",
    "Materials",
    "Foods",
    "Energy",
    "Robotics",
    "Biotech",
    "Capital",
    "Media",
    "Motors",
    "Textiles",
    "Software",
    "Pharma",
    "Mining",
    "Airways",
    "Shipping",
    "Retail",
    "Labs",
    "Partners",
    "Technologies",
    "Solutions",
    "Ventures",
    "Brands",
];

const COMPANY_SUFFIXES: &[&str] = &["Inc", "Corp", "LLC", "Group", "Ltd", "Co"];

const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "Robert",
    "Patricia",
    "John",
    "Jennifer",
    "Michael",
    "Linda",
    "David",
    "Elizabeth",
    "William",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Charles",
    "Karen",
    "Christopher",
    "Lisa",
    "Daniel",
    "Nancy",
    "Matthew",
    "Betty",
    "Anthony",
    "Margaret",
    "Mark",
    "Sandra",
    "Donald",
    "Ashley",
    "Steven",
    "Kimberly",
    "Andrew",
    "Emily",
    "Paul",
    "Donna",
    "Joshua",
    "Michelle",
    "Kenneth",
    "Carol",
    "Kevin",
    "Amanda",
    "Brian",
    "Dorothy",
    "George",
    "Melissa",
    "Timothy",
    "Deborah",
    "Ronald",
    "Stephanie",
    "Edward",
    "Rebecca",
    "Jason",
    "Sharon",
    "Jeffrey",
    "Laura",
    "Ryan",
    "Cynthia",
    "Jacob",
    "Kathleen",
    "Gary",
    "Amy",
];

const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
    "White",
    "Harris",
    "Sanchez",
    "Clark",
    "Ramirez",
    "Lewis",
    "Robinson",
    "Walker",
    "Young",
    "Allen",
    "King",
    "Wright",
    "Scott",
    "Torres",
    "Nguyen",
    "Hill",
    "Flores",
    "Green",
    "Adams",
    "Nelson",
    "Baker",
    "Hall",
    "Rivera",
    "Campbell",
    "Mitchell",
    "Carter",
    "Roberts",
    "Gomez",
    "Phillips",
    "Evans",
    "Turner",
    "Diaz",
    "Parker",
    "Cruz",
    "Edwards",
    "Collins",
    "Reyes",
    "Stewart",
    "Morris",
    "Morales",
    "Murphy",
];

const CITY_PREFIXES: &[&str] = &[
    "New", "Fort", "Lake", "Port", "North", "South", "East", "West", "Mount", "Saint", "Grand",
    "Little", "Upper", "Lower", "Old", "Royal",
];

const CITY_STEMS: &[&str] = &[
    "Haven", "Ridge", "Brook", "Field", "Wood", "Dale", "Ford", "Shore", "Spring", "Falls",
    "Crest", "View", "Grove", "Hollow", "Meadow", "Point", "Harbor", "Bluff", "Glen", "Creek",
    "Vale", "Bridge", "Crossing", "Heights",
];

const SECTORS: &[&str] = &[
    "Energy",
    "Materials",
    "Industrials",
    "Consumer Discretionary",
    "Consumer Staples",
    "Health Care",
    "Financials",
    "Information Technology",
    "Communication Services",
    "Utilities",
    "Real Estate",
    "Aerospace & Defense",
    "Automobiles",
    "Banks",
    "Capital Goods",
    "Commercial Services",
    "Diversified Financials",
    "Food & Beverage",
    "Household Products",
    "Insurance",
    "Media & Entertainment",
    "Pharmaceuticals",
    "Retailing",
    "Semiconductors",
    "Software & Services",
    "Telecommunication",
    "Transportation",
    "Tobacco",
    "Textiles & Apparel",
    "Paper & Forest Products",
];

const PRODUCT_MATERIALS: &[&str] = &[
    "Steel", "Oak", "Carbon", "Ceramic", "Leather", "Bamboo", "Titanium", "Copper", "Walnut",
    "Granite", "Wool", "Linen", "Aluminum", "Glass", "Marble", "Cotton",
];

const PRODUCT_NOUNS: &[&str] = &[
    "Desk",
    "Chair",
    "Lamp",
    "Keyboard",
    "Monitor",
    "Bottle",
    "Backpack",
    "Notebook",
    "Speaker",
    "Kettle",
    "Blender",
    "Router",
    "Camera",
    "Drone",
    "Watch",
    "Headphones",
    "Charger",
    "Tablet",
    "Printer",
    "Scanner",
];

const JOB_TITLES: &[&str] = &[
    "Account Executive",
    "Software Engineer",
    "Data Analyst",
    "Product Manager",
    "Sales Director",
    "Marketing Specialist",
    "Operations Manager",
    "Financial Analyst",
    "Customer Success Manager",
    "VP of Engineering",
    "Chief Technology Officer",
    "Business Development Rep",
    "Solutions Architect",
    "Support Engineer",
    "Research Scientist",
    "Recruiter",
    "Controller",
    "Designer",
];

const STREET_NAMES: &[&str] = &[
    "Main",
    "Oak",
    "Maple",
    "Cedar",
    "Pine",
    "Elm",
    "Washington",
    "Lincoln",
    "Park",
    "Lakeview",
    "Sunset",
    "Riverside",
    "Hillcrest",
    "Franklin",
    "Highland",
    "Jefferson",
];

const STREET_KINDS: &[&str] = &["St", "Ave", "Blvd", "Rd", "Ln", "Dr", "Way", "Ct"];

const EMAIL_DOMAINS: &[&str] = &["example.com", "mail.net", "corp.io", "inbox.org", "company.co"];

/// An infinite, deterministic family of entity strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Company names ("Global Dynamics Inc").
    Company,
    /// Person full names ("Mary Johnson").
    Person,
    /// City names ("Lake Haven", "New Ridgefield").
    City,
    /// Email addresses derived from person names.
    Email,
    /// Product names ("Carbon Desk 210").
    Product,
    /// Industry sectors (finite list, sub-numbered past the end).
    Sector,
    /// Stock tickers (base-26 codes).
    Ticker,
    /// ISO dates walking forward from 2015-01-01.
    Date,
    /// Zero-padded numeric identifiers.
    NumericId,
    /// Hex identifiers (UUID-ish).
    HexId,
    /// Phone numbers.
    Phone,
    /// Street addresses ("742 Maple Ave").
    Street,
    /// Job titles (finite list, sub-numbered).
    JobTitle,
}

/// Deterministic pick from a pool with injective overflow: index `i` maps
/// to `pool[i % len]` plus a numeric disambiguator for each wrap-around.
fn pick<'a>(pool: &'a [&'a str], i: u64) -> (&'a str, u64) {
    (pool[(i % pool.len() as u64) as usize], i / pool.len() as u64)
}

impl Domain {
    /// All domains (used by generators to diversify corpora).
    pub fn all() -> &'static [Domain] {
        &[
            Domain::Company,
            Domain::Person,
            Domain::City,
            Domain::Email,
            Domain::Product,
            Domain::Sector,
            Domain::Ticker,
            Domain::Date,
            Domain::NumericId,
            Domain::HexId,
            Domain::Phone,
            Domain::Street,
            Domain::JobTitle,
        ]
    }

    /// Short label used in generated column names.
    pub fn label(&self) -> &'static str {
        match self {
            Domain::Company => "company",
            Domain::Person => "person",
            Domain::City => "city",
            Domain::Email => "email",
            Domain::Product => "product",
            Domain::Sector => "sector",
            Domain::Ticker => "ticker",
            Domain::Date => "date",
            Domain::NumericId => "id",
            Domain::HexId => "uid",
            Domain::Phone => "phone",
            Domain::Street => "address",
            Domain::JobTitle => "title",
        }
    }

    /// The `i`-th entity of this domain. Injective in `i`: distinct indices
    /// always produce distinct strings.
    pub fn value(&self, i: u64) -> String {
        match self {
            Domain::Company => {
                let (adj, rest) = pick(ADJECTIVES, i);
                let (noun, rest) = pick(COMPANY_NOUNS, rest);
                let (suffix, wrap) = pick(COMPANY_SUFFIXES, rest);
                if wrap == 0 {
                    format!("{adj} {noun} {suffix}")
                } else {
                    format!("{adj} {noun} {wrap} {suffix}")
                }
            }
            Domain::Person => {
                let (first, rest) = pick(FIRST_NAMES, i);
                let (last, wrap) = pick(LAST_NAMES, rest);
                if wrap == 0 {
                    format!("{first} {last}")
                } else {
                    // Middle initial cycles keep names plausible yet unique.
                    let initial = (b'A' + (wrap % 26) as u8) as char;
                    let gen = wrap / 26;
                    if gen == 0 {
                        format!("{first} {initial}. {last}")
                    } else {
                        format!("{first} {initial}. {last} {}", roman(gen + 1))
                    }
                }
            }
            Domain::City => {
                let (prefix, rest) = pick(CITY_PREFIXES, i);
                let (stem, wrap) = pick(CITY_STEMS, rest);
                if wrap == 0 {
                    format!("{prefix} {stem}")
                } else {
                    format!("{prefix} {stem} {wrap}")
                }
            }
            Domain::Email => {
                let (first, rest) = pick(FIRST_NAMES, i);
                let (last, rest) = pick(LAST_NAMES, rest);
                let (domain, wrap) = pick(EMAIL_DOMAINS, rest);
                if wrap == 0 {
                    format!("{}.{}@{}", first.to_lowercase(), last.to_lowercase(), domain)
                } else {
                    format!("{}.{}{}@{}", first.to_lowercase(), last.to_lowercase(), wrap, domain)
                }
            }
            Domain::Product => {
                let (material, rest) = pick(PRODUCT_MATERIALS, i);
                let (noun, wrap) = pick(PRODUCT_NOUNS, rest);
                format!("{material} {noun} {}", 100 + wrap)
            }
            Domain::Sector => {
                let (sector, wrap) = pick(SECTORS, i);
                if wrap == 0 {
                    sector.to_string()
                } else {
                    format!("{sector} {wrap}")
                }
            }
            Domain::Ticker => {
                // Base-26 code, 2+ letters, offset to avoid "AA" collisions
                // with short English words dominating.
                let mut n = i + 26;
                let mut code = String::new();
                while n > 0 {
                    code.push((b'A' + (n % 26) as u8) as char);
                    n /= 26;
                }
                code
            }
            Domain::Date => {
                // Days since 2015-01-01, rendered ISO. Simple calendar walk
                // (civil-from-days algorithm).
                let (y, m, d) = civil_from_days(16_436 + i as i64); // 2015-01-01
                format!("{y:04}-{m:02}-{d:02}")
            }
            Domain::NumericId => format!("{i:06}"),
            Domain::HexId => {
                let h = mix64(combine64(0x0048_4558, i));
                format!("{h:016x}")
            }
            Domain::Phone => {
                let h = mix64(combine64(0x5048, i));
                let area = 200 + h % 700;
                let exchange = 100 + (h >> 10) % 900;
                let line = i % 10_000;
                let ext = i / 10_000;
                if ext == 0 {
                    format!("({area:03}) {exchange:03}-{line:04}")
                } else {
                    format!("({area:03}) {exchange:03}-{line:04} x{ext}")
                }
            }
            Domain::Street => {
                let (name, rest) = pick(STREET_NAMES, i);
                let (kind, wrap) = pick(STREET_KINDS, rest);
                format!("{} {name} {kind}", 100 + wrap * 16 + (mix64(i) % 16))
            }
            Domain::JobTitle => {
                let (title, wrap) = pick(JOB_TITLES, i);
                if wrap == 0 {
                    title.to_string()
                } else {
                    format!("{title} {wrap}")
                }
            }
        }
    }

    /// Whether a format variant is meaningful for this domain.
    pub fn variants(&self) -> &'static [Variant] {
        match self {
            Domain::Date => &[Variant::Identity, Variant::DateUs, Variant::DateCompact],
            Domain::NumericId => {
                &[Variant::Identity, Variant::StripZeros, Variant::Prefixed("ID-")]
            }
            Domain::Ticker | Domain::HexId => &[Variant::Identity, Variant::Lower],
            Domain::Phone => &[Variant::Identity, Variant::DigitsOnly],
            _ => &[Variant::Identity, Variant::Upper, Variant::Lower, Variant::StripPunct],
        }
    }
}

/// A formatting transformation applied uniformly to a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Leave values as generated.
    Identity,
    /// Uppercase.
    Upper,
    /// Lowercase.
    Lower,
    /// Remove punctuation (keep spaces).
    StripPunct,
    /// ISO date → US `MM/DD/YYYY`.
    DateUs,
    /// ISO date → compact `YYYYMMDD`.
    DateCompact,
    /// Strip leading zeros from digit runs.
    StripZeros,
    /// Keep only digits (phone numbers).
    DigitsOnly,
    /// Prepend a code prefix.
    Prefixed(&'static str),
}

impl Variant {
    /// Apply to one value.
    pub fn apply(&self, s: &str) -> String {
        match self {
            Variant::Identity => s.to_string(),
            Variant::Upper => s.to_uppercase(),
            Variant::Lower => s.to_lowercase(),
            Variant::StripPunct => {
                s.chars().filter(|c| c.is_alphanumeric() || c.is_whitespace()).collect()
            }
            Variant::DateUs => {
                // "YYYY-MM-DD" -> "MM/DD/YYYY"; non-dates pass through.
                let parts: Vec<&str> = s.split('-').collect();
                if parts.len() == 3 {
                    format!("{}/{}/{}", parts[1], parts[2], parts[0])
                } else {
                    s.to_string()
                }
            }
            Variant::DateCompact => s.chars().filter(|c| c.is_ascii_digit()).collect(),
            Variant::StripZeros => {
                let trimmed = s.trim_start_matches('0');
                if trimmed.is_empty() {
                    "0".to_string()
                } else {
                    trimmed.to_string()
                }
            }
            Variant::DigitsOnly => s.chars().filter(|c| c.is_ascii_digit()).collect(),
            Variant::Prefixed(p) => format!("{p}{s}"),
        }
    }
}

/// Roman numerals for name generations (II, III, ...).
fn roman(mut n: u64) -> String {
    const TABLE: &[(u64, &str)] = &[
        (1000, "M"),
        (900, "CM"),
        (500, "D"),
        (400, "CD"),
        (100, "C"),
        (90, "XC"),
        (50, "L"),
        (40, "XL"),
        (10, "X"),
        (9, "IX"),
        (5, "V"),
        (4, "IV"),
        (1, "I"),
    ];
    let mut out = String::new();
    for &(v, s) in TABLE {
        while n >= v {
            out.push_str(s);
            n -= v;
        }
    }
    out
}

/// Howard Hinnant's civil-from-days: days since 1970-01-01 → (y, m, d).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn values_are_injective() {
        for domain in Domain::all() {
            let mut seen = HashSet::new();
            for i in 0..5000u64 {
                let v = domain.value(i);
                assert!(seen.insert(v.clone()), "{domain:?} repeats '{v}' at i={i}");
            }
        }
    }

    #[test]
    fn values_are_deterministic() {
        assert_eq!(Domain::Company.value(42), Domain::Company.value(42));
        assert_ne!(Domain::Company.value(1), Domain::Company.value(2));
    }

    #[test]
    fn dates_are_valid_iso() {
        for i in [0u64, 1, 100, 365, 366, 10_000] {
            let d = Domain::Date.value(i);
            assert_eq!(d.len(), 10, "bad date '{d}'");
            let parts: Vec<&str> = d.split('-').collect();
            assert_eq!(parts.len(), 3);
            let m: u32 = parts[1].parse().unwrap();
            let day: u32 = parts[2].parse().unwrap();
            assert!((1..=12).contains(&m));
            assert!((1..=31).contains(&day));
        }
        assert_eq!(Domain::Date.value(0), "2015-01-01");
    }

    #[test]
    fn variant_applications() {
        assert_eq!(Variant::Upper.apply("Acme Inc"), "ACME INC");
        assert_eq!(Variant::StripPunct.apply("Acme, Inc."), "Acme Inc");
        assert_eq!(Variant::DateUs.apply("2020-01-15"), "01/15/2020");
        assert_eq!(Variant::DateCompact.apply("2020-01-15"), "20200115");
        assert_eq!(Variant::StripZeros.apply("000420"), "420");
        assert_eq!(Variant::StripZeros.apply("0000"), "0");
        assert_eq!(Variant::DigitsOnly.apply("(555) 123-4567"), "5551234567");
        assert_eq!(Variant::Prefixed("ID-").apply("42"), "ID-42");
    }

    #[test]
    fn variants_preserve_injectivity_for_their_domains() {
        for domain in Domain::all() {
            for variant in domain.variants() {
                let mut seen = HashSet::new();
                for i in 0..2000u64 {
                    let v = variant.apply(&domain.value(i));
                    assert!(seen.insert(v.clone()), "{domain:?}/{variant:?} collides on '{v}'");
                }
            }
        }
    }

    #[test]
    fn variant_keeps_alphanum_key_alignment() {
        use wg_store::{Column, KeyNorm};
        // A variant column must still join with the identity column under
        // AlphaNum normalization — this is the semantic-join ground truth.
        for domain in [Domain::Company, Domain::Person, Domain::City] {
            for variant in domain.variants() {
                let base: Vec<String> = (0..50).map(|i| domain.value(i)).collect();
                let varied: Vec<String> = base.iter().map(|s| variant.apply(s)).collect();
                let a = Column::text("a", base);
                let b = Column::text("b", varied);
                let c = wg_store::containment(&a, &b, KeyNorm::AlphaNum);
                assert!(c > 0.99, "{domain:?}/{variant:?}: AlphaNum containment {c}");
            }
        }
    }

    #[test]
    fn roman_numerals() {
        assert_eq!(roman(2), "II");
        assert_eq!(roman(4), "IV");
        assert_eq!(roman(9), "IX");
        assert_eq!(roman(14), "XIV");
    }

    #[test]
    fn tickers_are_uppercase_letters() {
        for i in 0..100 {
            let t = Domain::Ticker.value(i);
            assert!(t.chars().all(|c| c.is_ascii_uppercase()), "bad ticker {t}");
            assert!(t.len() >= 2);
        }
    }
}
