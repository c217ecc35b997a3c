//! OpenEMR electronic medical records workload (§8).
//!
//! The paper's deployment has 1,297 columns with 566 deemed sensitive;
//! they "are mostly just inserted and fetched, and are not used in any
//! computation", so almost all stay at RND (Fig. 9), with a handful of
//! needs-plaintext columns doing string/date manipulation.

/// A scaled-down schema with the same *categories* of columns: mostly
/// fetch-only medical narratives, a few DET lookups, a couple of OPE
/// ranges, and sensitive fields exercised by unsupported string/date ops.
pub fn schema() -> Vec<String> {
    vec![
        "CREATE TABLE patient_data (pid int, fname varchar(60), lname varchar(60), \
         dob int, ss varchar(11), street varchar(100), city varchar(60), phone varchar(20), \
         sex varchar(10), race varchar(20), medical_history text, allergies text, \
         current_medications text)"
            .into(),
        "CREATE TABLE forms (form_id int, pid int, encounter int, form_name varchar(60), \
         form_date int, narrative text)"
            .into(),
        "CREATE TABLE billing (billing_id int, pid int, code varchar(10), fee int, \
         bill_date int, justify text)"
            .into(),
        "CREATE TABLE prescriptions (rx_id int, pid int, drug varchar(100), dosage \
         varchar(20), note text, refills int)"
            .into(),
        "CREATE INDEX ON patient_data (pid); CREATE INDEX ON forms (pid); \
         CREATE INDEX ON billing (pid); CREATE INDEX ON prescriptions (pid)"
            .into(),
    ]
}

/// Paper-reported Fig. 9 numbers for OpenEMR (for the comparison table).
pub mod paper {
    pub const TOTAL_COLS: usize = 1297;
    pub const SENSITIVE: usize = 566;
    pub const NEEDS_PLAINTEXT: usize = 7;
    pub const MOST_SENSITIVE_AT_HIGH: (usize, usize) = (525, 540);
}

/// Representative queries: mostly insert/fetch, some lookups, plus the
/// date/string manipulations CryptDB cannot support (§8.2).
pub fn analysis_workload() -> Vec<String> {
    vec![
        "SELECT fname, lname, medical_history, allergies FROM patient_data WHERE pid = 1".into(),
        "SELECT narrative FROM forms WHERE pid = 1".into(),
        "SELECT drug, dosage FROM prescriptions WHERE pid = 1".into(),
        "SELECT COUNT(*) FROM billing WHERE pid = 1".into(),
        "SELECT SUM(fee) FROM billing WHERE pid = 1".into(),
        "SELECT pid FROM billing WHERE bill_date > 20110101".into(),
        // Unsupported (needs plaintext): date manipulation and lowercase
        // comparison on encrypted fields.
        "SELECT pid FROM patient_data WHERE YEAR(dob) = 1970".into(),
        "SELECT pid FROM patient_data WHERE LOWER(lname) = 'last1'".into(),
    ]
}
