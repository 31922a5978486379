"""Built-in seed data: reference taxonomies, demonstration plans and prompt texts.

These strings are shipped with the package so that planning context,
plan parsing and gateway replay stay byte-stable across installs.  The
``${name}`` slots are template placeholders; ``${asset_class}`` and
``${asset_description}`` survive until a sequence is materialized for a
concrete asset.
"""

from __future__ import annotations

# --- reference taxonomies -----------------------------------------------------

ASSET_HEALTH_TAXONOMY = """\
kpi: asset health
edges:
  - {parent: asset health, relation: analyzed, child: component quality}
  - {parent: asset health, relation: analyzed, child: historical record}
  - {parent: asset health, relation: analyzed, child: asset profile}
  - {parent: component quality, relation: impacted, child: mechanical issue}
  - {parent: component quality, relation: impacted, child: electrical issue}
  - {parent: component quality, relation: impacted, child: thermal health issue}
  - {parent: component quality, relation: impacted, child: chemical health issue}
  - {parent: mechanical issue, relation: measured, child: on-demand inspection}
  - {parent: mechanical issue, relation: measured, child: continuous sensors}
  - {parent: mechanical issue, relation: measured, child: periodic chemical sampling}
  - {parent: electrical issue, relation: measured, child: insulation}
  - {parent: historical record, relation: source, child: asset maintenance}
  - {parent: historical record, relation: source, child: failure}
  - {parent: historical record, relation: source, child: repair history}
  - {parent: asset profile, relation: recorded, child: age}
  - {parent: asset profile, relation: recorded, child: operating hours}
  - {parent: asset profile, relation: recorded, child: idle hours}
"""

ASSET_SUSTAINABILITY_TAXONOMY = """\
kpi: asset sustainability
edges:
  - {parent: asset sustainability, relation: analyzed, child: greenhouse impact}
  - {parent: asset sustainability, relation: analyzed, child: natural resources impact}
  - {parent: asset sustainability, relation: contributed, child: environmental impact}
  - {parent: environmental impact, relation: influenced, child: air pollution}
  - {parent: environmental impact, relation: influenced, child: water pollution}
  - {parent: environmental impact, relation: influenced, child: solid waste}
  - {parent: environmental impact, relation: influenced, child: noise level}
  - {parent: environmental impact, relation: influenced, child: ecological consequence}
  - {parent: greenhouse impact, relation: measured, child: co2-equivalent emissions}
  - {parent: natural resources impact, relation: depended on, child: non-renewable resources}
"""

# --- planner context ----------------------------------------------------------

PLANNER_TASK_INTRO = """\
Your task is to develop a short plan to help me accomplish my goal using the provided taxonomy in a couple of steps. You can take the help of the taxonomy below to create a new plan. Taxonomy can be understood as follows: [parent] is [relation] by [child], where parent and child are nodes in taxonomy, and relation is the connection between parent and child nodes. Taxonomy is non-cyclic, it means same node cannot be connected to itself. You are given an agent that recursively can produce a plan by traversing the given taxonomy."""

PLANNER_CONSTRAINTS = """\
Here is a different goal with different taxonomy relations. Your task is to develop a short plan to help me accomplish my goal in a couple of steps using the provided taxonomy. You can take the help of the taxonomy above to create a new plan. Keep in mind that:
(1) It is okay to update the taxonomy to the original.
(2) Be very careful with the adding of duplicate node in the taxonomy.
(3) You cannot use a partial taxonomy.
(4) You cannot repeat the same step in the plan.
(5) Do not traverse newly created nodes in taxonomy."""

# One-shot demonstration plan: component-quality route to an asset health score.
COMPONENT_HEALTH_DEMONSTRATION = """\
Goal: calculate asset health using the component health condition.
# Think: My target is component. I will use asset health taxonomy to devise a plan for component condition-based health score estimation. From the asset health taxonomy, four options start with the node component. Mechanical issues, electrical issues, thermal health issues, and chemical health issues impact the components. Subsequently, the mechanical issue is measured by on-demand inspection, continuous sensors, periodic chemical sampling, and so on. I should prepare the plan using the given taxonomy. I will traverse the taxonomy in a top-down fashion starting from the component node.
Step 1: Let us focus on the component-based asset health. We are interested in the factors coming from the 1. Mechanical, 2. Electrical, 3. Thermal, and 4. Chemical quality issues for the asset health. Can you give me detailed guidelines for identifying factors impacting overall asset health?
# Think: Now, I will traverse taxonomy for each child node connected to component node and so on. From the asset health taxonomy, component is impacted by mechanical issue and thus we will visit mechanical issue node to identify factors associated with mechanical issue. I know that I cannot use a partial recipe.
Step 2: Let us focus on mechanical issue of component. We are interested in the factors coming from the 1. on-demand inspection, 2. continuous sensors, and 3. periodic chemical sampling mechanic for the asset health. Can you give me detailed guidelines for identifying factors impacting overall asset health?
# Think: Now that I have visited mechanical issue node, I will focus on other child node connected to component node. From the asset health taxonomy, component is also impacted by electrical issue, thermal health issue and chemical health issue. I know that I cannot use a partial recipe. So my goal is not satisfied, I need to visit more nodes by repeating Step 2 three more times.
Step 3: Let us focus on electrical issue of component. We are interested in the factors coming from the 1. insulin for the asset health. Can you give me detailed guidelines for identifying factors impacting overall asset health?
Step 4: Let us focus on thermal health issue of component. We are interested in the factors coming from the thermal health issue of component for the asset health. Can you give me detailed guidelines for identifying factors impacting overall asset health?
Step 5: Let us focus on chemical health issue of component. We are interested in the factors coming from the chemical health issue of component for the asset health. Can you give me detailed guidelines for identifying factors impacting overall asset health?
# Think: We have visited all four nodes: mechanical issue, electrical issue, thermal health issue and chemical health issue. Now that I have traversed all the child and sub-child node of component node. I should repeat Step 2 for any other node that is not visited so far. I know that I cannot use a partial recipe.
Step 6: Collect all the discovered factors so far.
# Think: We now shift our focus to discovered factors, asset class, and asset description.
Step 7: Let us assume that I am only interested in evaluating the asset health based on the currently available data and discovered {factors}. I need your help to identify the factors that indicate the deterioration of the ${asset_class}'s component quality, and those factors should be able to be monitored and quantified in future data.
Step 8: Great, this answer is an excellent general guideline. Let's focus on a specific asset type: ${asset_class} to analyze the component health on the deterioration of the ${asset_class}'s health score. Here is a detailed explanation: ${asset_description}. Do not include any specific company contact information.
Step 9: We need to be very specific for asset type ${asset_class}. Here is a detailed explanation: ${asset_description}. Let us focus on the factor, Key Performance Indicators (KPIs) and reports. Please list all of them with the factors, KPIs and report, explanation, and impact on asset health.
Step 10: Generate a Python code that takes the component as an input node from taxonomy and returns "yes it is there" if any child node of the input node has a word sensor into their name otherwise, it returns skip. Code will traverse the taxonomy in a top-down fashion starting from the input node. Please handle KeyError, especially before the dictionary key. Use the dictionary to store the parent and child relationship of taxonomy. A leaf node should also be present in the dictionary with an empty child. Only generate Python code in PEP standard, Do not generate an explanation. Generate a single Python function as an entry point call me(node='component'). If you have any explanations, please put them into Python code.
Step 11: Please help me export a markdown output as guidelines for analyzing the quality of asset component health or quality to overall asset health, the output has three parts where part 1 and part 2 are compulsory and part 3 is needed if it is relevant.
Part 1: It is the beginning part of the document, please briefly introduce the ${asset_class}, its usage in the various application and also include the introduction of its component
Part 2: the factors/KPIs that indicate or impact the component-based asset health using the categories of mechanical issue, electrical issue, thermal health issue and chemical health issue.
Part 3 (optional): highlights the sensors deployed or being able to use measure such components quality or its quality deterioration. Please output as a list, each list contains a) the quality problem being monitored; b) the sensor used, and c) the reason of using such sensor.
# Think: To succeed, I need to perform all these steps, one after the other. So, I need to use the "AND" operator.
Execution Order: (Step 1 AND Step 2 AND Step 3 AND Step 4 AND Step 5 AND Step 6 AND Step 7 AND Step 8 AND Step 9 AND Step 10 AND Step 11) Goal completed!
"""

# Nine-step plan: asset-profile route to an asset health score.
ASSET_PROFILE_PLAN = """\
Step 1: Let us focus on asset profile based asset health. We are interested in the factors coming from the 1. age, 2. operating hours, and 3. idle hours for the asset health. Can you give me detailed guidelines for identifying factors impacting overall asset health?
Step 2: Let us focus on age of asset profile. We are interested in the factors coming from the 1. year for the asset health. Can you give me detailed guidelines for identifying factors impacting overall asset health?
Step 3: Let us focus on operating hours of asset profile. We are interested in the factors coming from the 1. hour for the asset health. Can you give me detailed guidelines for identifying factors impacting overall asset health?
Step 4: Let us focus on idle hours of asset profile. We are interested in the factors coming from the 1. hour for the asset health. Can you give me detailed guidelines for identifying factors impacting overall asset health?
Step 5: Collect all the discovered factors so far.
Step 6: Let us assume that I am only interested in evaluating the asset health based on the currently available data and discovered factors. I need your help to identify the factors that indicate the deterioration of the ${asset_class}'s asset profile quality, and those factors should be able to be monitored and quantified in the future data.
Step 7: Great, this answer is an excellent general guideline. Let's focus on a specific asset type: ${asset_class} to analyze the asset profile health on the deterioration of the ${asset_class}'s health score. Do not include any specific company contact information.
Step 8: We need to be very specific for asset type ${asset_class}. Here is a detailed explanation: ${asset_description}. Let us focus on the factor, Key Performance Indicators (KPIs) and reports. Please list all of them with the factors, KPIs and report, explanation, and impact on asset health.
Step 9: Please help me export a markdown output as guidelines for analyzing the quality of asset profile health or quality to overall asset health, the output has three parts where part 1 and part 2 are compulsory and part 3 is needed if it is relevant.
Part 1: It is the beginning part of the document, please briefly introduce the ${asset_class}, its usage in the various application and also include the introduction of its component
Part 2: the factors/KPIs that indicate or impact the asset profile-based asset health using the categories of age, operating hours and idle hours
Part 3 (optional): highlights the sensors deployed or being able to use measure such asset profile quality or its quality deterioration. Please output as a list, each list contains a) the quality problem being monitored; b) the sensor used, and c) the reason of using such sensor.
Execution Order: (Step 1 AND Step 2 AND Step 3 AND Step 4 AND Step 5 AND Step 6 AND Step 7 AND Step 8 AND Step 9) Goal completed!
"""

# Ten-step plan: environmental-impact route to an asset sustainability score.
ENVIRONMENTAL_IMPACT_PLAN = """\
Step 1: Let us focus on environmental impact based asset sustainability. We are interested in the factors coming from the 1. air pollution, 2. water pollution, 3. solid waste, 4. noise level, and 5. ecological consequence for the asset sustainability. Can you give me detailed guidelines for identifying factors impacting overall asset sustainability?
Step 2: Let us focus on air pollution of environmental impact. We are interested in the factors coming from the 1. co2-equivalent emissions for the asset sustainability. Can you give me detailed guidelines for identifying factors impacting overall asset sustainability?
Step 3: Let us focus on water pollution of environmental impact. We are interested in the factors coming from the 1. biochemical oxygen demand for the asset sustainability. Can you give me detailed guidelines for identifying factors impacting overall asset sustainability?
Step 4: Let us focus on solid waste of environmental impact. We are interested in the factors coming from the 1. volume and 2. weight for the asset sustainability. Can you give me detailed guidelines for identifying factors impacting overall asset sustainability?
Step 5: Let us focus on environmental impact based on noise level. We are interested in the factors coming from the 1. decibel for the asset sustainability. Can you give me detailed guidelines for identifying factors impacting overall asset sustainability?
Step 6: Let us focus on environmental impact based on ecological consequence. We are interested in the factors coming from the 1. species diversity for the asset sustainability. Can you give me detailed guidelines for identifying factors impacting overall asset sustainability?
Step 7: Collect all the discovered factors so far.
Step 8: Great, this answer is an excellent general guideline. Let's focus on a specific asset type: ${asset_class} to analyze the environmental impact on the sustainability of the ${asset_class}. Do not include any specific company contact information.
Step 9: We need to be very specific for asset type ${asset_class}. Here is a detailed explanation: ${asset_description}. Let us focus on the factor, Key Performance Indicators (KPIs) and reports. Please list all of them with the factors, KPIs and report, explanation, and impact on asset sustainability.
Step 10: Please help me export a markdown output as guidelines for analyzing the quality of asset sustainability using environmental impact, the output has three parts where part 1 and part 2 are compulsory and part 3 is needed if it is relevant.
Part 1: It is the beginning part of the document, please briefly introduce the ${asset_class}, its usage in the various application and also include the introduction of its environmental impact
Part 2: the factors/KPIs that indicate or impact the environmental impact using the categories of air pollution, water pollution, solid waste, noise level and ecological consequence
Part 3 (optional): highlights the sensors deployed or being able to use measure such environmental impact or its quality deterioration. Please output as a list, each list contains a) the environmental impact problem being monitored; b) the sensor used, and c) the reason of using such sensor.
Execution Order: (Step 1 AND Step 2 AND Step 3 AND Step 4 AND Step 5 AND Step 6 AND Step 7 AND Step 8 AND Step 9 AND Step 10) Goal completed!
"""

# --- chat answer scaffolding ----------------------------------------------------

# The execution strategies, named as in the paper.  They live here so the
# command-line parser can offer them without importing the executor.
STRATEGIES = ("lastq", "allq", "allqcot", "allqreact", "gitq")

# Appended verbatim after the last question of an all-questions turn when the
# chain-of-thought variant is selected.
COT_SUFFIX = "think step-by-step"

REACT_HEADER = """\
You don't have any tools to use. Please ignore this information: {tool_names}, {tools}, {agent_scratchpad}.

Now we have prepared the following questions."""

REACT_FORMAT_BLOCK = """\
You must give answers to these questions one by one and you must think step by step using the following format:

Question: the input question you must answer
Thought: you should think carefully
Answer: the answer to the question. Keep it precise. Limit the answer length to 200 words.
... (this Question/Thought/Answer can repeat N times)"""

REACT_FINAL_BLOCK = """\
Thought: Now I know how to answer the final request: {final_request}
Final Answer: the final answer to the request. Please write a nice article summarizing the answers you have in the thought process.

Begin!"""

# --- prompt registry seeds --------------------------------------------------------

_DOMAIN_EXPERT_SYSTEM = """\
You are a helpful, respectful, and honest assistant, serving as a domain expert in industrial asset management. Your task is to provide specialized knowledge for the specific industrial asset. Ensure that your responses are safe, socially unbiased, and positive. Refrain from including any specific company details or contact information.

We seek detailed insights into the factors that affect industrial asset health, particularly to calculate the asset health score. Focus on assets such as turbines, electrical transformers, and compressors. The crucial aspects that influence asset health are generally grouped into three categories: a) the quality and health of asset components, b) the history of maintenance, failures, and repairs, and c) the profile of the asset, such as installation, asset location, and its age. In this session, our emphasis will be on understanding how the quality and health of asset components impact the overall asset score."""

_DATA_SCIENTIST_SYSTEM = """\
You will play a role as the data scientist and software engineer. The user will describe the guidelines for assessing the component quality of an asset type. You need help to generate the necessary asset configurations, sample dataset, python code, and model recipes. The following are the general guidelines for asset quality. ${asset_class} and ${asset_description} as domain knowledge."""

_REFINEMENT_SYSTEM = """\
You are a helpful AI assistant. Given an industrial asset, generate its description and its components.

Also generate confidence score of answer. The confidence score should be based on the level of detail and accuracy of the generated description, and is subjective to the knowledge and understanding of the system generating the response. Do not provide note and explanation to the confidence score. Do not generate any information other than the description and confidence score. You can take a look at the following examples. Output should contain only generate Answer and Confidence score.

Question: Describe Wind Turbine Asset.

Answer: A wind turbine is a tall tower with long, spinning blades that capture the wind's energy. The wind pushes the blades around, which turns a shaft that connects to a generator. The generator converts the mechanical energy of the spinning shaft into electricity that we can use in our homes and businesses. The main components of a wind turbine include the rotor blades, the hub, the main shaft, the gearbox, the generator, the yaw system, and the control system.
Confidence: 90% (TOKENSTOP)"""

_CLAIMS_EXTRACT = """\
Read the passage below and state ${claim_count} short factual claims it makes. Write one claim per line. Each claim must be a single declarative sentence that ends with a period and can be checked on its own, without markdown markup or numbering. For example, a passage describing a wind turbine could yield the claim: A wind turbine converts the kinetic energy of wind into electrical energy by first converting it into mechanical energy.

Passage:
${passage}"""

# Deterministic plan-step templates.  ${target}, ${kpi}, ${children}, ${child}
# and ${subtopics} are bound at generation time; the asset slots survive until
# materialization.
_PLAN_ENUMERATE_CHILDREN = """\
Let us focus on ${target} based ${kpi}. We are interested in the factors coming from the ${children} for the ${kpi}. Can you give me detailed guidelines for identifying factors impacting overall ${kpi}?"""

_PLAN_ENUMERATE_SELF = """\
Let us focus on ${target} based ${kpi}. We are interested in the factors coming from the ${target} for the ${kpi}. Can you give me detailed guidelines for identifying factors impacting overall ${kpi}?"""

_PLAN_CHILD = """\
Let us focus on ${child} of ${target}. We are interested in the factors coming from the ${subtopics} for the ${kpi}. Can you give me detailed guidelines for identifying factors impacting overall ${kpi}?"""

_PLAN_COLLECT = "Collect all the discovered factors so far."

_PLAN_SPECIALIZE_ASSET = """\
Great, this answer is an excellent general guideline. Let's focus on a specific asset type: ${asset_class} to analyze the ${target} on the deterioration of the ${asset_class}'s ${kpi}. Here is a detailed explanation: ${asset_description}. Do not include any specific company contact information."""

_PLAN_SPECIALIZE_KPIS = """\
We need to be very specific for asset type ${asset_class}. Here is a detailed explanation: ${asset_description}. Let us focus on the factor, Key Performance Indicators (KPIs) and reports. Please list all of them with the factors, KPIs and report, explanation, and impact on ${kpi}."""

_PLAN_CODE_CHECK = """\
Generate a Python code that takes the ${target} as an input node from taxonomy and returns "yes it is there" if any child node of the input node has a word sensor into their name otherwise, it returns skip. Code will traverse the taxonomy in a top-down fashion starting from the input node. Please handle KeyError, especially before the dictionary key. Use the dictionary to store the parent and child relationship of taxonomy. A leaf node should also be present in the dictionary with an empty child. Only generate Python code in PEP standard, Do not generate an explanation. Generate a single Python function as an entry point call me(node='${target}'). If you have any explanations, please put them into Python code."""

_PLAN_EXPORT = """\
Please help me export a markdown output as guidelines for analyzing the quality of ${target} health or quality to overall ${kpi}, the output has three parts where part 1 and part 2 are compulsory and part 3 is needed if it is relevant.
Part 1: It is the beginning part of the document, please briefly introduce the ${asset_class}, its usage in the various application and also include the introduction of its ${target}
Part 2: the factors/KPIs that indicate or impact the ${target}-based ${kpi} using the categories of ${children}
Part 3 (optional): highlights the sensors deployed or being able to use measure such ${target} quality or its quality deterioration. Please output as a list, each list contains a) the quality problem being monitored; b) the sensor used, and c) the reason of using such sensor."""

_PLAN_SENSOR_QUESTION = """\
Highlight the sensors deployed or being able to use to measure the ${target} quality or its quality deterioration. Please output as a list, each list contains a) the quality problem being monitored; b) the sensor used, and c) the reason of using such sensor."""

# template id -> (role, body)
PROMPT_SEEDS: dict[str, tuple[str, str]] = {
    "domain-expert.system": ("system", _DOMAIN_EXPERT_SYSTEM),
    "data-scientist.system": ("system", _DATA_SCIENTIST_SYSTEM),
    "refinement.system": ("system", _REFINEMENT_SYSTEM),
    "refinement.initial": ("user", "Describe ${asset_class}, and its components."),
    "refinement.betterment": (
        "user",
        "Generate better solutions in terms of readability, accuracy, and completeness.",
    ),
    "claims.extract": ("user", _CLAIMS_EXTRACT),
    "plan.enumerate-children": ("user", _PLAN_ENUMERATE_CHILDREN),
    "plan.enumerate-self": ("user", _PLAN_ENUMERATE_SELF),
    "plan.child": ("user", _PLAN_CHILD),
    "plan.collect": ("user", _PLAN_COLLECT),
    "plan.specialize-asset": ("user", _PLAN_SPECIALIZE_ASSET),
    "plan.specialize-kpis": ("user", _PLAN_SPECIALIZE_KPIS),
    "plan.code-check": ("user", _PLAN_CODE_CHECK),
    "plan.export": ("user", _PLAN_EXPORT),
    "plan.sensor-question": ("user", _PLAN_SENSOR_QUESTION),
}

# role name -> system prompt template id
ROLE_SEEDS: dict[str, str] = {
    "domain-expert": "domain-expert.system",
    "data-scientist": "data-scientist.system",
}
