//! phpBB forum workload (§5, §8.4.2).
//!
//! Two schema variants:
//! * [`annotated_schema`] — the Fig. 4/5 multi-principal annotations
//!   (private messages, per-forum post access);
//! * [`sensitive_fields`] — the §8 single-proxy "notably sensitive fields"
//!   set used for the Fig. 14/15 throughput/latency runs.
//!
//! Each HTTP request type expands to tens of SQL statements, matching
//! "Most HTTP requests involved tens of SQL queries each" (Fig. 14).

use rand::Rng;

/// Scale of the pre-loaded forum.
#[derive(Clone, Copy, Debug)]
pub struct PhpbbScale {
    pub users: i64,
    pub forums: i64,
    pub posts: i64,
    pub messages: i64,
}

impl Default for PhpbbScale {
    fn default() -> Self {
        PhpbbScale {
            users: 10,
            forums: 5,
            posts: 100,
            messages: 100,
        }
    }
}

/// The plain (no annotations) schema used for the performance runs.
pub fn schema() -> Vec<String> {
    vec![
        "CREATE TABLE users (user_id int, username varchar(255), user_password varchar(40), \
         user_email varchar(100), user_lastvisit int, user_posts int)"
            .into(),
        "CREATE TABLE forums (forum_id int, forum_name varchar(60), forum_desc text, \
         forum_posts int)"
            .into(),
        "CREATE TABLE topics (topic_id int, forum_id int, topic_title varchar(60), \
         topic_poster int, topic_time int, topic_replies int)"
            .into(),
        "CREATE TABLE posts (post_id int, topic_id int, forum_id int, poster_id int, \
         post_time int, post_subject varchar(60), post_text text)"
            .into(),
        "CREATE TABLE privmsgs (privmsgs_id int, privmsgs_type int, privmsgs_subject \
         varchar(60), privmsgs_from_userid int, privmsgs_to_userid int, privmsgs_date int, \
         privmsgs_text text)"
            .into(),
        "CREATE INDEX ON users (user_id); CREATE INDEX ON users (username); \
         CREATE INDEX ON posts (post_id); CREATE INDEX ON posts (topic_id); \
         CREATE INDEX ON topics (topic_id); CREATE INDEX ON topics (forum_id); \
         CREATE INDEX ON privmsgs (privmsgs_id); \
         CREATE INDEX ON privmsgs (privmsgs_to_userid); \
         CREATE INDEX ON forums (forum_id)"
            .into(),
    ]
}

/// The "notably sensitive fields" the Fig. 14 run encrypts (per-table).
/// Matches the paper's manual-inspection set: private message content and
/// subject, post text and subject, user password and email, forum names.
pub fn sensitive_fields() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("users", vec!["user_password", "user_email"]),
        ("forums", vec!["forum_name", "forum_desc"]),
        ("topics", vec!["topic_title"]),
        ("posts", vec!["post_subject", "post_text"]),
        ("privmsgs", vec!["privmsgs_subject", "privmsgs_text"]),
    ]
}

/// The multi-principal annotated schema of Fig. 4/5 (simplified to the
/// paper's published excerpts).
pub fn annotated_schema() -> String {
    "PRINCTYPE physical_user EXTERNAL; \
     PRINCTYPE user, group_p, forum_post, forum_name, msg; \
     CREATE TABLE users ( userid int, username varchar(255), \
       (username physical_user) SPEAKS FOR (userid user) ); \
     CREATE TABLE usergroup ( userid int, groupid int, \
       (userid user) SPEAKS FOR (groupid group_p) ); \
     CREATE TABLE aclgroups ( groupid int, forumid int, optionid int, \
       (groupid group_p) SPEAKS FOR (forumid forum_post) IF optionid = 20, \
       (groupid group_p) SPEAKS FOR (forumid forum_name) IF optionid = 14 ); \
     CREATE TABLE posts ( postid int, forumid int, \
       post text ENC FOR (forumid forum_post) ); \
     CREATE TABLE forum ( forumid int, \
       name varchar(255) ENC FOR (forumid forum_name) ); \
     CREATE TABLE privmsgs ( msgid int, \
       subject varchar(255) ENC FOR (msgid msg), \
       msgtext text ENC FOR (msgid msg) ); \
     CREATE TABLE privmsgs_to ( msgid int, rcpt_id int, sender_id int, \
       (sender_id user) SPEAKS FOR (msgid msg), \
       (rcpt_id user) SPEAKS FOR (msgid msg) )"
        .to_string()
}

/// Lines of login/logout glue the paper reports for phpBB (Fig. 8).
pub const PAPER_LOGIN_LOC: usize = 7;
/// Sensitive fields secured in the paper's phpBB deployment (Fig. 8).
pub const PAPER_SENSITIVE_FIELDS: usize = 23;

/// Loads the forum with seed data.
pub fn load_statements<R: Rng>(rng: &mut R, scale: &PhpbbScale) -> Vec<String> {
    let mut out = Vec::new();
    for u in 1..=scale.users {
        out.push(format!(
            "INSERT INTO users (user_id, username, user_password, user_email, user_lastvisit, \
             user_posts) VALUES ({u}, 'user{u}', 'hashedpw{u}', 'user{u}@example.org', \
             20110801, 0)"
        ));
    }
    for f in 1..=scale.forums {
        out.push(format!(
            "INSERT INTO forums (forum_id, forum_name, forum_desc, forum_posts) VALUES \
             ({f}, 'Forum number {f}', 'Discussions for forum {f}', 0)"
        ));
        out.push(format!(
            "INSERT INTO topics (topic_id, forum_id, topic_title, topic_poster, topic_time, \
             topic_replies) VALUES ({f}, {f}, 'Welcome thread {f}', 1, 20110801, 0)"
        ));
    }
    for p in 1..=scale.posts {
        let f = rng.gen_range(1..=scale.forums);
        let u = rng.gen_range(1..=scale.users);
        out.push(format!(
            "INSERT INTO posts (post_id, topic_id, forum_id, poster_id, post_time, \
             post_subject, post_text) VALUES ({p}, {f}, {f}, {u}, 2011080{}, \
             'Re: thread {f}', 'post body {p} with some searchable words like onion{p}')",
            rng.gen_range(1..10)
        ));
    }
    for m in 1..=scale.messages {
        let from = rng.gen_range(1..=scale.users);
        let to = rng.gen_range(1..=scale.users);
        out.push(format!(
            "INSERT INTO privmsgs (privmsgs_id, privmsgs_type, privmsgs_subject, \
             privmsgs_from_userid, privmsgs_to_userid, privmsgs_date, privmsgs_text) VALUES \
             ({m}, 0, 'subject {m}', {from}, {to}, 2011080{}, 'private message body {m}')",
            rng.gen_range(1..10)
        ));
    }
    out
}

/// The five request types measured in Fig. 15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Request {
    Login,
    ReadPost,
    WritePost,
    ReadMsg,
    WriteMsg,
}

impl Request {
    pub const ALL: [Request; 5] = [
        Request::Login,
        Request::ReadPost,
        Request::WritePost,
        Request::ReadMsg,
        Request::WriteMsg,
    ];
}

/// Expands one HTTP request into its SQL statement sequence.
pub fn request_statements<R: Rng>(
    rng: &mut R,
    req: Request,
    scale: &PhpbbScale,
    next_id: &mut i64,
) -> Vec<String> {
    let u = rng.gen_range(1..=scale.users);
    let f = rng.gen_range(1..=scale.forums);
    let _ = rng.gen_range(1..=scale.posts); // Keep request RNG streams aligned.
    let m = rng.gen_range(1..=scale.messages);
    let mut stmts: Vec<String> = vec![
        // Session boilerplate every phpBB page runs.
        format!("SELECT user_id, username, user_lastvisit FROM users WHERE user_id = {u}"),
        "SELECT forum_id, forum_name FROM forums ORDER BY forum_id".into(),
    ];
    match req {
        Request::Login => {
            stmts.push(format!(
                "SELECT user_id, user_password FROM users WHERE username = 'user{u}'"
            ));
            stmts.push(format!(
                "UPDATE users SET user_lastvisit = 20110901 WHERE user_id = {u}"
            ));
            for _ in 0..4 {
                stmts.push(format!(
                    "SELECT COUNT(*) FROM privmsgs WHERE privmsgs_to_userid = {u}"
                ));
            }
        }
        Request::ReadPost => {
            stmts.push(format!(
                "SELECT topic_id, topic_title, topic_replies FROM topics WHERE forum_id = {f}"
            ));
            for _ in 0..6 {
                let pid = rng.gen_range(1..=scale.posts);
                stmts.push(format!(
                    "SELECT post_subject, post_text, poster_id FROM posts WHERE post_id = {pid}"
                ));
            }
            stmts.push(format!("SELECT username FROM users WHERE user_id = {u}"));
        }
        Request::WritePost => {
            let id = *next_id;
            *next_id += 1;
            stmts.push(format!("SELECT topic_id FROM topics WHERE forum_id = {f}"));
            stmts.push(format!(
                "INSERT INTO posts (post_id, topic_id, forum_id, poster_id, post_time, \
                 post_subject, post_text) VALUES ({id}, {f}, {f}, {u}, 20110901, \
                 'Re: new reply', 'freshly written post body number {id}')"
            ));
            stmts.push(format!(
                "UPDATE topics SET topic_replies = topic_replies + 1 WHERE topic_id = {f}"
            ));
            stmts.push(format!(
                "UPDATE users SET user_posts = user_posts + 1 WHERE user_id = {u}"
            ));
            stmts.push(format!(
                "SELECT post_subject, post_text FROM posts WHERE post_id = {id}"
            ));
        }
        Request::ReadMsg => {
            stmts.push(format!(
                "SELECT privmsgs_id, privmsgs_subject, privmsgs_date FROM privmsgs \
                 WHERE privmsgs_to_userid = {u}"
            ));
            stmts.push(format!(
                "SELECT privmsgs_subject, privmsgs_text, privmsgs_from_userid FROM privmsgs \
                 WHERE privmsgs_id = {m}"
            ));
            stmts.push(format!("SELECT username FROM users WHERE user_id = {u}"));
        }
        Request::WriteMsg => {
            let id = *next_id;
            *next_id += 1;
            let to = rng.gen_range(1..=scale.users);
            stmts.push(format!(
                "SELECT user_id FROM users WHERE username = 'user{to}'"
            ));
            stmts.push(format!(
                "INSERT INTO privmsgs (privmsgs_id, privmsgs_type, privmsgs_subject, \
                 privmsgs_from_userid, privmsgs_to_userid, privmsgs_date, privmsgs_text) \
                 VALUES ({id}, 0, 'fresh subject {id}', {u}, {to}, 20110901, \
                 'newly sent private message {id}')"
            ));
            stmts.push(format!(
                "SELECT COUNT(*) FROM privmsgs WHERE privmsgs_to_userid = {to}"
            ));
        }
    }
    stmts
}

/// Representative query workload for the Fig. 9 onion-level analysis.
pub fn analysis_workload() -> Vec<String> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let scale = PhpbbScale::default();
    let mut next_id = 10_000;
    let mut out = Vec::new();
    for req in Request::ALL {
        for _ in 0..3 {
            out.extend(request_statements(&mut rng, req, &scale, &mut next_id));
        }
    }
    // Keyword search over posts (SEARCH onion).
    out.push("SELECT post_id FROM posts WHERE post_text LIKE '%onion%'".into());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn requests_expand_to_many_statements() {
        let mut rng = StdRng::seed_from_u64(4);
        let scale = PhpbbScale::default();
        let mut id = 1000;
        for req in Request::ALL {
            let stmts = request_statements(&mut rng, req, &scale, &mut id);
            assert!(stmts.len() >= 5, "{req:?} yielded {}", stmts.len());
        }
        assert!(id > 1000, "write requests allocate ids");
    }

    #[test]
    fn annotated_schema_matches_paper_shape() {
        let stats = crate::annotation_stats(&annotated_schema());
        // The paper's full deployment used 31 annotations (11 unique); our
        // published-excerpt subset is smaller but of the same shape.
        assert!(stats.total >= 10, "total={}", stats.total);
        assert!(stats.unique >= 8);
        assert_eq!(stats.enc_for_columns, 4);
    }
}
