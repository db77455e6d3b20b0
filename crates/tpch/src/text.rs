//! dbgen value domains: nations, regions, part naming vocabularies, ship
//! modes, priorities, and the comment text corpus (with the seeded phrase
//! injections the selective queries depend on).

/// The 25 TPC-H nations with their region keys, in nationkey order.
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// The 5 TPC-H regions, in regionkey order.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// Part-name color vocabulary (dbgen uses 92 colors; this is the subset the
/// queries probe plus filler, which preserves selectivities well enough).
pub const COLORS: [&str; 32] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
    "green",
    "goldenrod",
];

/// p_type syllable 1.
pub const TYPE_S1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
/// p_type syllable 2.
pub const TYPE_S2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
/// p_type syllable 3.
pub const TYPE_S3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// p_container syllable 1.
pub const CONTAINER_S1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
/// p_container syllable 2.
pub const CONTAINER_S2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// Market segments (Q3 probes `BUILDING`).
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

/// Order priorities (Q4 probes the `1-URGENT`/`2-HIGH` prefix space).
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Ship modes (Q12 probes MAIL/SHIP, Q19 probes AIR/AIR REG).
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// Ship instructions (Q19 probes `DELIVER IN PERSON`).
pub const SHIP_INSTRUCTS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// Filler vocabulary for comments.
pub const COMMENT_WORDS: [&str; 24] = [
    "furiously",
    "quickly",
    "carefully",
    "blithely",
    "slyly",
    "ideas",
    "deposits",
    "foxes",
    "packages",
    "accounts",
    "pinto",
    "beans",
    "instructions",
    "theodolites",
    "platelets",
    "pearls",
    "sauternes",
    "asymptotes",
    "dolphins",
    "wake",
    "sleep",
    "haggle",
    "nag",
    "dazzle",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_cover_query_constants() {
        // Nations the queries name.
        for n in ["FRANCE", "GERMANY", "BRAZIL", "SAUDI ARABIA", "CANADA"] {
            assert!(NATIONS.iter().any(|(name, _)| *name == n), "{n}");
        }
        // Regions the queries name.
        for r in ["ASIA", "EUROPE", "AMERICA", "MIDDLE EAST"] {
            assert!(REGIONS.contains(&r), "{r}");
        }
        // Q9/Q20 colors.
        assert!(COLORS.contains(&"green"));
        assert!(COLORS.contains(&"forest"));
        // Q8's full type and Q2's BRASS suffix.
        assert!(TYPE_S1.contains(&"ECONOMY"));
        assert!(TYPE_S2.contains(&"ANODIZED"));
        assert!(TYPE_S3.contains(&"STEEL"));
        assert!(TYPE_S3.contains(&"BRASS"));
        // Q19 containers.
        for c in ["SM", "MED", "LG"] {
            assert!(CONTAINER_S1.contains(&c));
        }
        // Q12/Q19 ship modes.
        assert!(SHIP_MODES.contains(&"MAIL"));
        assert!(SHIP_MODES.contains(&"SHIP"));
        assert!(SHIP_MODES.contains(&"AIR"));
    }

    #[test]
    fn nation_region_keys_valid() {
        for (_, r) in NATIONS {
            assert!((0..5).contains(&r));
        }
        // Every region has at least one nation.
        for r in 0..5 {
            assert!(NATIONS.iter().any(|(_, k)| *k == r));
        }
    }
}
